"""Behaviour that only a new interpreter shows.

The test session has long imported scipy (the reference oracles use
it) and may have started the forward's helper threads, so that no
command loads scipy or leaves a thread behind it did not need, and how
conversion behaves when its caches first fill in worker threads, is
checked here in fresh processes.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import mixed_rate_folder, tone, write_wav

SRC = Path(__file__).resolve().parent.parent / "src"

# each command (a JSON list of argument lists) through the console entry
# point, then every scipy module the process has loaded, its live
# threads and the forward's part count
_RUN_THEN_REPORT = """
import json
import sys
import threading
from scribo import cli, net

for argv in json.loads(sys.argv[1]):
    sys.argv = ["scribo", *argv]
    try:
        cli.main()
    except SystemExit as exc:
        assert exc.code == 0, f"{argv} exited {exc.code}"
print(json.dumps({"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "threads": threading.active_count(), "row_parts": net.row_parts()}))
"""


def python(*args, **env_vars):
    """Run a new interpreter with the package importable and ``env_vars``
    set; return stdout. It must exit with code 0 on its own."""
    env = {**os.environ, **env_vars}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_commands(*commands, **env_vars):
    """What a new interpreter holds after running ``commands``."""
    out = python("-c", _RUN_THEN_REPORT, json.dumps([list(map(str, c)) for c in commands]),
                 **env_vars)
    return json.loads(out.splitlines()[-1])


def test_inference_loads_no_scipy(tiny_model_dir, toy_arpa, tmp_path):
    # greedy and --arpa beam transcription
    wav = write_wav(tmp_path / "clip.wav", tone(0.8))
    transcribe = ["transcribe", "--model", tiny_model_dir, "--wav", wav]
    assert run_commands(transcribe,
                        [*transcribe, "--arpa", toy_arpa, "--beam-width", "8"])["scipy"] == []


def test_import_starts_no_thread():
    assert python("-c", "import threading, scribo; print(threading.active_count())",
                  OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1").split() == ["1"]


def test_split_transcribe_exits_on_its_own(tiny_model_dir, tmp_path):
    # 4 s give the stages about 200 rows, so with BLAS pinned on a machine
    # of several cores they split and the helper threads start; these
    # must not hold the interpreter open (run_commands waits for a clean exit)
    wav = write_wav(tmp_path / "clip.wav", tone(4.0))
    report = run_commands(["transcribe", "--model", tiny_model_dir, "--wav", wav],
                          OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    assert (report["threads"] > 1) == (report["row_parts"] > 1)
    assert report["threads"] <= report["row_parts"]


def test_corpus_convert_workers_write_same_bytes_in_a_fresh_process(tmp_path):
    # in the --workers 2 process the resampler's caches first fill in the workers
    src = mixed_rate_folder(tmp_path / "raw")
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        report = run_commands(["corpus", "convert", "--format", "folder-txt", "--in", src,
                               "--out", out, "--workers", workers],
                              OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        # conversion never reaches the forward, so no helper thread starts
        assert report["scipy"] == [] and report["threads"] == 1
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    serial, parallel = outs
    assert len([n for n in serial if n.endswith(".wav")]) == 6
    assert serial == parallel


_LOAD_THEN_COUNT_THREADS = """
import sys
import threading
from scribo import net
from scribo.errors import WeightError

try:
    net.load_weights(sys.argv[1])
    outcome = "loaded"
except WeightError as exc:
    outcome = "checksum" if "checksum mismatch" in str(exc) else repr(exc)
print(outcome, threading.active_count())
"""


def test_load_leaves_no_thread_behind(tiny_model_dir, tmp_path):
    # the blob is hashed in a thread while it is read; that thread ends
    # with the load, whether the checksum matches or not
    corrupt = tmp_path / "corrupt"
    corrupt.mkdir()
    for name in ("manifest.json", "weights.bin"):
        (corrupt / name).write_bytes((tiny_model_dir / name).read_bytes())
    blob = bytearray((corrupt / "weights.bin").read_bytes())
    blob[-1] ^= 0x01
    (corrupt / "weights.bin").write_bytes(bytes(blob))
    assert python("-c", _LOAD_THEN_COUNT_THREADS, str(tiny_model_dir)).split() == \
        ["loaded", "1"]
    assert python("-c", _LOAD_THEN_COUNT_THREADS, str(corrupt)).split() == ["checksum", "1"]
