"""One command for the scribo benchmark.

    python3 perfbench/run.py --workload offline_greedy --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  It first builds the workload's
inputs from the seed in a separate process (``inputs.py``, cached under
``.bench_cache/``), then starts the measured process (``measure.py``)
with BLAS and OpenMP threads pinned to 1, prints every metric by name
with its unit, the full result as one JSON line, and last a summary
line::

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}

whose metrics are the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).  ``--workload all`` runs every
workload one after another, each printing its own report.

The exit code is 0 when every output check passed, 1 when one failed,
and 2 when the benchmark could not run (for example, outside a checkout
that holds the package); with ``all`` it is the highest of them.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".bench_cache"

WORKLOADS = ("offline_greedy", "beam_lm", "streaming_long", "corpus_prep")
END_TO_END = ("audio_s_per_s", "rtf_p50", "rtf_tail", "setup_s", "peak_rss_mb")
# Reported with the end-to-end metrics but kept out of the summary line:
# both are 0 at the seed commit, and a bound relative to 0 means nothing.
# A failure shows in "correct" and "failed" instead.
CHECK_METRICS = ("ops_failed_frac", "ref_cer")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}
TIME_LIMIT_S = 175.0


def _fmt(name: str, m: dict) -> str:
    value = m["value"]
    shown = "n/a" if value is None else f"{value:.6g}"
    extra = f" p{m['percentile']:.4g}" if "percentile" in m else ""
    return f"  {name:<46} {shown:>14} {m['unit']:<12} (n={m['n']}{extra})"


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = {**os.environ, **PINNED}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=max(timeout, 1.0))


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    """Run one workload and print its report; returns the exit code."""
    started = time.monotonic()
    try:
        gen = _child([str(HERE / "inputs.py"), "--workload", workload,
                      "--seed", str(seed), "--cache", str(CACHE)], timeout=600)
        if gen.returncode != 0:
            print(f"error: input generation failed:\n{gen.stderr}", file=sys.stderr)
            return 2
        inputs = json.loads(gen.stdout.strip().splitlines()[-1])
        measured = _child([str(HERE / "measure.py"), "--inputs", inputs["dir"],
                           "--cache", str(CACHE), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          timeout=TIME_LIMIT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired as exc:
        # subprocess.run has killed the child and waited for it
        print(f"error: {exc.cmd[1]} did not finish in time", file=sys.stderr)
        return 2
    if measured.returncode != 0:
        print(f"error: the measured process failed:\n{measured.stderr}", file=sys.stderr)
        return 2
    sys.stderr.write(measured.stderr)
    result = json.loads(measured.stdout.strip().splitlines()[-1])

    e2e = result["end_to_end"]
    print(f"scribo benchmark: workload={result['workload']} seed={result['seed']} "
          f"seconds={seconds:g} trace={result['trace']}")
    print(f"inputs: {result['inputs']['input_digest']} model {result['inputs']['model_checksum']}")
    env = result["environment"]
    print("environment: " + ", ".join(f"{k}={env[k]}" for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "nproc", "cpu_model", "python", "numpy",
        "scipy", "blas")))
    print("end-to-end" + (" (untraced half of each pair)" if trace else "") + ":")
    for name in END_TO_END + CHECK_METRICS:
        print(_fmt(name, e2e[name]))
    if trace:
        print("per-layer (traced):")
        for name, m in result["per_layer"].items():
            print(_fmt(name, m))
        print(_fmt("trace_overhead", result["trace_overhead"]))
        for f in result["findings"]:
            print(f"finding {f['id']}: {f['detail']}")
    print(f"checks: {result['attempted']} operations, {result['failed']} failed")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(result))

    chosen = result["per_layer"] if trace else {k: e2e[k] for k in END_TO_END}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in chosen.items()},
    }))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="scribo benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "scribo" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/scribo package to benchmark", file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(w, args.seed, args.seconds, args.trace) for w in chosen)


if __name__ == "__main__":
    sys.exit(main())
