"""Behaviour that only a new interpreter shows.

The test session has long imported scipy (the reference oracles use
it), so that no command loads scipy, and how conversion behaves when
its caches first fill in worker threads, is checked here in fresh
processes.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import mixed_rate_folder, tone, write_wav

SRC = Path(__file__).resolve().parent.parent / "src"

# each command (a JSON list of argument lists) through the console entry
# point, then every scipy module the process has loaded
_RUN_THEN_LIST_SCIPY = """
import json
import sys
from scribo import cli

for argv in json.loads(sys.argv[1]):
    sys.argv = ["scribo", *argv]
    try:
        cli.main()
    except SystemExit as exc:
        assert exc.code == 0, f"{argv} exited {exc.code}"
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def python(*args):
    """Run a new interpreter with the package importable; return stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def scipy_loaded_by(*commands):
    """The scipy modules a new interpreter holds after running ``commands``."""
    out = python("-c", _RUN_THEN_LIST_SCIPY, json.dumps([list(map(str, c)) for c in commands]))
    return out.splitlines()[-1]


def test_inference_loads_no_scipy(tiny_model_dir, toy_arpa, tmp_path):
    # greedy and --arpa beam transcription
    wav = write_wav(tmp_path / "clip.wav", tone(0.8))
    transcribe = ["transcribe", "--model", tiny_model_dir, "--wav", wav]
    assert scipy_loaded_by(transcribe,
                           [*transcribe, "--arpa", toy_arpa, "--beam-width", "8"]) == "[]"


def test_corpus_convert_workers_write_same_bytes_in_a_fresh_process(tmp_path):
    # in the --workers 2 process the resampler's caches first fill in the workers
    src = mixed_rate_folder(tmp_path / "raw")
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        assert scipy_loaded_by(["corpus", "convert", "--format", "folder-txt", "--in", src,
                                "--out", out, "--workers", workers]) == "[]"
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    serial, parallel = outs
    assert len([n for n in serial if n.endswith(".wav")]) == 6
    assert serial == parallel
