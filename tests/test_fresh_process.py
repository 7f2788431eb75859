"""Behaviour that only a new interpreter shows.

The test session has long imported scipy (the reference oracles use
it), so whether a command loads scipy, and how the converter behaves
when its first scipy import happens in worker threads, is checked here
in fresh processes.
"""
import os
import subprocess
import sys
from pathlib import Path

from conftest import mixed_rate_folder, tone, write_wav

SRC = Path(__file__).resolve().parent.parent / "src"

# greedy and --arpa beam transcription through the console entry point,
# then every scipy module the process has loaded
_TRANSCRIBE_THEN_LIST_SCIPY = """
import sys
import scribo
from scribo import cli

model, wav, arpa = sys.argv[1:]
for extra in ([], ["--arpa", arpa, "--beam-width", "8"]):
    sys.argv = ["scribo", "transcribe", "--model", model, "--wav", wav, *extra]
    try:
        cli.main()
    except SystemExit as exc:
        assert exc.code == 0, f"transcribe {extra} exited {exc.code}"
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


def test_inference_loads_no_scipy(tiny_model_dir, toy_arpa, tmp_path):
    wav = write_wav(tmp_path / "clip.wav", tone(0.8))
    out = python("-c", _TRANSCRIBE_THEN_LIST_SCIPY, str(tiny_model_dir), str(wav),
                 str(toy_arpa))
    assert out.splitlines()[-1] == "[]"


def test_corpus_convert_workers_write_same_bytes_in_a_fresh_process(tmp_path):
    # in the --workers 2 process scipy is first imported by the workers
    src = mixed_rate_folder(tmp_path / "raw")
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        python("-m", "scribo.cli", "corpus", "convert", "--format", "folder-txt",
               "--in", str(src), "--out", str(out), "--workers", workers)
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    serial, parallel = outs
    assert len([n for n in serial if n.endswith(".wav")]) == 6
    assert serial == parallel
