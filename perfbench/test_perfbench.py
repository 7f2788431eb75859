"""Tests of the benchmark itself: output schema, the BENCHMARK.json
contract, traced/untraced agreement and the checks' helpers.

    python3 -m pytest -q perfbench/test_perfbench.py

They run short real benchmark runs (about a minute in all).
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from measure import edit_distance, naive_clean, tail  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402

from scribo.corpus import DatasetItem, clean_corpus  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload, seed=0, seconds=1, trace=0, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def config():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def greedy_runs():
    return {trace: bench("offline_greedy", seed=3, seconds=2, trace=trace) for trace in (0, 1)}


def test_benchmark_json_follows_the_contract(config):
    assert set(config) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                           "per_layer"}
    assert config["command"] == ["python3", "perfbench/run.py"]
    assert config["paths"] == ["perfbench"]
    assert isinstance(config["run_seconds"], int) and 1 <= config["run_seconds"] <= 60
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in config[key]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    for w in config["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in config["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT_RE.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in config["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in config["end_to_end"])
    assert [m["name"] for m in config["end_to_end"]] == list(END_TO_END)
    for m in config["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT_RE.match(m["unit"])
    assert {m["name"]: (m["unit"], m["better"]) for m in config["per_layer"]} == PER_LAYER
    # 4 + 22 runs per workload must fit in 3420 s with set-up; keep runs short
    assert (4 + 22 * len(config["workloads"])) * (config["run_seconds"] + 12) < 3420


def test_untraced_output_schema(greedy_runs, config):
    proc = greedy_runs[0]
    assert proc.returncode == 0, proc.stderr
    detail, summary = parse(proc)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert isinstance(summary["attempted"], int) and summary["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in config["end_to_end"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == units
    for value in (v["value"] for v in summary["metrics"].values()):
        assert isinstance(value, float) and math.isfinite(value) and value > 0
    for name in units:
        assert f"  {name} " in proc.stdout  # printed by name with its unit
    env = detail["environment"]
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "nproc", "cpu_model", "python",
                "numpy", "scipy", "blas", "warmup"):
        assert key in env
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["OMP_NUM_THREADS"] == "1"
    assert detail["inputs"]["seed"] == 3 and detail["inputs"]["input_digest"].startswith("sha256:")
    assert detail["end_to_end"]["ops_failed_frac"]["value"] == 0


def test_traced_output_schema_and_identical_outputs(greedy_runs, config):
    proc = greedy_runs[1]
    assert proc.returncode == 0, proc.stderr
    detail, summary = parse(proc)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    units = {m["name"]: m["unit"] for m in config["per_layer"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == units
    assert all(isinstance(v["value"], float) for v in summary["metrics"].values())
    assert all("n" in m for m in detail["per_layer"].values())
    assert "value" in detail["trace_overhead"]
    assert detail["per_layer"]["net.forward.share_of_wall"]["value"] > 0.5
    # every op ran untraced and traced with equal outputs, and both runs
    # agree with the untraced-only run of the same seed
    assert summary["attempted"] % 2 == 0
    plain = parse(greedy_runs[0])[0]["transcripts"]
    traced = detail["transcripts"]
    shared = set(plain) & set(traced)
    assert shared and all(plain[k] == traced[k] for k in shared)
    spans = [json.loads(line) for line in Path(detail["spans_file"]).read_text().splitlines()]
    assert {"id", "name", "start", "end", "parent", "clip"} <= set(spans[0])
    assert any(s["name"] == "net.forward" for s in spans)


def test_corpus_prep_traced_checks_pass():
    proc = bench("corpus_prep", seed=5, seconds=1, trace=1)
    assert proc.returncode == 0, proc.stderr
    detail, summary = parse(proc)
    assert summary["correct"] and summary["failed"] == 0
    assert summary["metrics"]["corpus.convert_audio.bytes_written"]["value"] > 0
    assert detail["per_layer"]["textnorm.normalize_text.us_per_line"]["n"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("offline_greedy", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_has_ten_samples_beyond():
    values = list(range(1, 101))
    value, pct = tail(values)
    assert sum(v > value for v in values) == 10 and pct == 90.0
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_edit_distance():
    assert edit_distance("kitten", "sitting") == 3
    assert edit_distance("", "ab") == 2


def test_naive_clean_agrees_with_clean_corpus():
    items = [DatasetItem("a.wav", "x" * 40, 4.0), DatasetItem("b.wav", "x" * 40, 0.2),
             DatasetItem("c.wav", "x", 31.0), DatasetItem("d.wav", "x" * 600, 10.0),
             DatasetItem("e.wav", "x" * 200, 2.0), DatasetItem("f.wav", "x", 5.0),
             DatasetItem("g.wav", "x" * 3, 8.0), DatasetItem("h.wav", "x" * 30, 3.0)]
    report = clean_corpus(items)
    kept, excluded = naive_clean(items)
    assert kept == report.kept and excluded == report.excluded
    assert {m for _, m in excluded} >= {1, 2, 3, 4, 5}


@pytest.mark.parametrize("workload", ["beam_lm", "corpus_prep"])
def test_inputs_are_deterministic_in_the_seed(tmp_path, workload):
    digests = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        inputs._build(workload, seed, tmp_path / name)
        digests.append(inputs._digest(tmp_path / name))
    assert digests[0] == digests[1] != digests[2]
