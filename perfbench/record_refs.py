"""Store the reference transcripts that ``ref_cer`` is measured against.

    python3 perfbench/record_refs.py

Runs every workload once at the default seed with the reference check
off and writes each clip's (corpus_prep: each item's normalized)
transcript to ``perfbench/refs.json``.  Run it only when the benchmark's
inputs change; a change to the program must match the stored file.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from run import CACHE, HERE, WORKLOADS, _child

DEFAULT_SEED = 0
# Long enough for each workload to visit every clip of its pool at least once.
SECONDS = {"offline_greedy": 15, "beam_lm": 30, "streaming_long": 1, "corpus_prep": 1}


def main() -> int:
    refs: dict = {"seed": DEFAULT_SEED}
    for workload in WORKLOADS:
        gen = _child([str(HERE / "inputs.py"), "--workload", workload,
                      "--seed", str(DEFAULT_SEED), "--cache", str(CACHE)], timeout=600)
        spec = json.loads(gen.stdout.strip().splitlines()[-1])
        out = _child([str(HERE / "measure.py"), "--inputs", spec["dir"], "--cache", str(CACHE),
                      "--seconds", str(SECONDS[workload]), "--refs", ""], timeout=600)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"{workload}: checks failed: {result['failures']}", file=sys.stderr)
            return 1
        pool = json.loads((Path(spec["dir"]) / "inputs.json").read_text(encoding="utf-8"))
        keys = [c["path"] for c in pool.get("clips", pool.get("corpus", {}).get("items", []))]
        missing = sorted(set(keys) - set(result["transcripts"]))
        if missing:
            print(f"{workload}: run did not reach {missing}", file=sys.stderr)
            return 1
        refs[workload] = result["transcripts"]
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, ensure_ascii=False) + "\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
