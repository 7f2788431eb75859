"""Network config, forward pass, folding, streaming, adaptation, weight IO."""
import dataclasses
import hashlib
import json
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scribo import net
from scribo.errors import ScriboError, WeightError
from scribo.ctcdecoder import greedy_decode
from scribo.features import (AudioClip, FeatureConfig, load_wav, logmel,
                             normalize_features)
from scribo.textnorm import ALPHABETS, AlphabetSpec

from conftest import fuzzed, run_quietly, small_config, tone, write_wav
from net_reference import reference_forward


def rand_features(rng, t, f=8):
    return rng.normal(0, 1, (t, f)).astype(np.float32)


# -------------------------------------------------------------- NetConfig

def test_quartznet15x5_layout():
    cfg = net.quartznet15x5(28)
    assert cfg.vocab_size == 28
    assert cfg.input_features == 64
    assert len(cfg.blocks) == 5
    assert [g.kernel for g in cfg.blocks] == [33, 39, 51, 63, 75]
    assert [g.channels for g in cfg.blocks] == [256, 256, 512, 512, 512]
    assert all(g.repeats == 3 and g.sub_blocks == 5 for g in cfg.blocks)
    assert all(g.residual for g in cfg.blocks)
    assert cfg.prologue.kernel == 33 and cfg.prologue.stride == 2
    assert cfg.epilogue[0].kernel == 87 and cfg.epilogue[0].dilation == 2
    assert cfg.epilogue[1].kernel == 1 and not cfg.epilogue[1].separable


def test_netconfig_dict_round_trip(small_cfg):
    assert net.NetConfig.from_dict(dataclasses.asdict(small_cfg)) == small_cfg


def test_saved_manifest_text_is_pinned(tmp_path, monkeypatch):
    # The config sections of a model manifest, byte for byte: a change to
    # how NetConfig, FeatureConfig or AlphabetSpec serialize shows here.
    # No tensors, so the blob checksum is that of zero bytes; the weight
    # check that would refuse an empty set is not what this pins.
    monkeypatch.setattr(net, "validate_weights", lambda cfg, weights: None)
    path = net.save_weights(tmp_path, net.quartznet15x5(28), net.NetworkWeights({}),
                            FeatureConfig(), ALPHABETS["en"], name="qn")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "2d1c80c1214262ebf8398a0cf383803e00035117e3c5d8a237d36e51b1c0ff29"


def test_block_group_needs_a_sub_block():
    with pytest.raises(ValueError, match="sub_blocks"):
        net.BlockGroup(repeats=1, sub_blocks=0, kernel=3, channels=4)


_WIDE_POINTWISE = [("kernel", 3), ("stride", 2), ("dilation", 2)]


@pytest.mark.parametrize("key,value", _WIDE_POINTWISE)
def test_pointwise_conv_spec_is_one_by_one(key, value):
    net.ConvSpec(kernel=1, channels=8, separable=False)
    with pytest.raises(ValueError, match="pointwise"):
        net.ConvSpec(**{"kernel": 1, "channels": 8, "separable": False, key: value})


@pytest.mark.parametrize("key,value", _WIDE_POINTWISE)
def test_load_rejects_a_wide_pointwise_epilogue(tiny_model_dir, tmp_path, key, value):
    manifest = json.loads((tiny_model_dir / net.MANIFEST_NAME).read_text())
    spec = manifest["net"]["epilogue"][-1]
    assert spec["separable"] is False
    spec[key] = value
    model = tmp_path / "model"
    model.mkdir()
    (model / net.MANIFEST_NAME).write_text(json.dumps(manifest))
    (model / net.BLOB_NAME).write_bytes((tiny_model_dir / net.BLOB_NAME).read_bytes())
    with pytest.raises(WeightError, match="pointwise"):
        net.load_weights(model)
    wav = write_wav(tmp_path / "clip.wav", tone(0.3))
    code, err = run_quietly("transcribe", "--model", str(model), "--wav", str(wav))
    assert code == 2
    assert "pointwise" in err


# ------------------------------------------------------------- param_count

def independent_param_sum(cfg):
    """Parameter count recomputed directly from the layer table."""
    def sep(k, c_in, c_out, bn=True):
        return k * c_in + c_in * c_out + (2 * c_out if bn else 0)

    def pw(c_in, c_out, bn=True):
        return c_in * c_out + (2 * c_out if bn else 0)

    total = sep(cfg.prologue.kernel, cfg.input_features, cfg.prologue.channels)
    c = cfg.prologue.channels
    for group in cfg.blocks:
        for _ in range(group.repeats):
            c_in = c
            for _ in range(group.sub_blocks):
                total += sep(group.kernel, c_in, group.channels)
                c_in = group.channels
            if group.residual:
                total += pw(c, group.channels)
            c = group.channels
    for spec in cfg.epilogue:
        if spec.separable:
            total += sep(spec.kernel, c, spec.channels)
        else:
            total += pw(c, spec.channels)
        c = spec.channels
    total += c * (cfg.vocab_size + 1) + (cfg.vocab_size + 1)   # head + bias
    return total


def test_param_count_quartznet_preset():
    count = net.param_count(net.quartznet15x5(28))
    assert count == 18_924_381
    assert 18.0e6 <= count <= 20.0e6


def test_param_count_matches_independent_sum(small_cfg):
    for cfg in (small_cfg, net.quartznet15x5(28), net.quartznet15x5(33)):
        assert net.param_count(cfg) == independent_param_sum(cfg)


def test_param_count_head_hand_example():
    # pointwise 4 -> 3 head: 12 kernel weights plus 3 bias entries
    cfg = net.NetConfig(
        vocab_size=2, input_features=4,
        prologue=net.ConvSpec(kernel=1, channels=4, stride=1),
        blocks=(), epilogue=(),
    )
    specs = net.tensor_specs(cfg)
    assert specs["c2.pw"] == (4, 3)
    assert specs["c2.bias"] == (3,)
    head_params = 4 * 3 + 3
    assert head_params == 15


def test_param_count_quadruples_when_channels_double():
    base = net.quartznet15x5(28)

    def double(spec):
        return dataclasses.replace(spec, channels=spec.channels * 2)

    doubled = dataclasses.replace(
        base,
        prologue=double(base.prologue),
        blocks=tuple(
            dataclasses.replace(g, channels=g.channels * 2) for g in base.blocks
        ),
        epilogue=tuple(double(s) for s in base.epilogue),
    )
    ratio = net.param_count(doubled) / net.param_count(base)
    assert 3.5 < ratio < 4.3


# ----------------------------------------------------------------- forward

@pytest.fixture(scope="module")
def small_net():
    cfg = small_config()
    return cfg, net.random_weights(cfg, seed=0)


@pytest.mark.parametrize("t", [1, 2, 3, 10, 100, 101])
def test_forward_output_rows(small_net, t):
    cfg, weights = small_net
    out = net.forward(cfg, weights, rand_features(np.random.default_rng(t), t))
    assert out.shape == (math.ceil(t / 2), cfg.vocab_size + 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=300))
def test_forward_shape_law(t):
    cfg, weights = _module_net()
    out = net.forward(cfg, weights, rand_features(np.random.default_rng(0), t))
    assert out.shape[0] == math.ceil(t / 2)


_NET_CACHE = {}


def _module_net():
    if "n" not in _NET_CACHE:
        cfg = small_config()
        _NET_CACHE["n"] = (cfg, net.random_weights(cfg, seed=0))
    return _NET_CACHE["n"]


def test_forward_rows_are_log_softmax(small_net):
    cfg, weights = small_net
    out = net.forward(cfg, weights, rand_features(np.random.default_rng(1), 40))
    sums = np.exp(out.astype(np.float64)).sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-5)


def test_forward_width_mismatch(small_net):
    cfg, weights = small_net
    with pytest.raises(ValueError):
        net.forward(cfg, weights, np.zeros((10, 9), dtype=np.float32))


def test_forward_empty_input_gives_empty_logits(small_net):
    cfg, weights = small_net
    for log_probs in (True, False):
        out = net.forward(cfg, weights, np.zeros((0, 8), dtype=np.float32), log_probs)
        assert out.shape == (0, cfg.vocab_size + 1)
        assert out.dtype == np.float32


def test_forward_zero_gamma_is_input_independent(small_cfg):
    weights = net.random_weights(small_cfg, seed=3)
    tensors = dict(weights.tensors)
    for name, value in tensors.items():
        if name.endswith(".dw") or name.endswith(".pw"):
            tensors[name] = np.zeros_like(value)
        elif name.endswith(".bn.gamma"):
            tensors[name] = np.zeros_like(value)
        elif name.endswith(".bn.beta"):
            tensors[name] = np.full_like(value, 0.37)
        elif name.endswith(".bn.mean"):
            tensors[name] = np.zeros_like(value)
        elif name.endswith(".bn.var"):
            tensors[name] = np.ones_like(value)
    frozen = net.NetworkWeights(tensors)
    rng = np.random.default_rng(4)
    out = net.forward(small_cfg, frozen, rand_features(rng, 30))
    assert np.allclose(out, out[0], atol=1e-6)
    other = net.forward(small_cfg, frozen, rand_features(rng, 30))
    assert np.allclose(out[0], other[0], atol=1e-6)


@pytest.mark.parametrize("blas,omp,want", [
    (None, None, 1),   # unpinned BLAS already spreads each product over every core
    ("1", None, 4),
    ("2", "1", 2),     # OPENBLAS_NUM_THREADS comes first, as OpenBLAS reads it
    ("3", None, 1),
    ("8", None, 1),
    (None, "1", 4),
    ("0", "2", 2),     # a value OpenBLAS ignores falls through to the next
    ("many", "1", 4),
    ("many", None, 1),
])
def test_row_parts_are_the_cores_blas_leaves_free(monkeypatch, blas, omp, want):
    monkeypatch.setattr(net.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    for var, value in zip(net.THREAD_ENV, (blas, omp)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)
    assert net._row_parts() == want


def split_rows(monkeypatch, parts: int, pool: ThreadPoolExecutor) -> None:
    """Have forwards split each stage's rows across ``parts`` threads:
    the caller and ``pool``, which should hold parts - 1 workers (the
    module's own pool is sized for this machine's part count)."""
    monkeypatch.setattr(net, "_PARTS", parts)
    monkeypatch.setattr(net, "_pool", pool)


@pytest.fixture(params=[1, 2, 3], ids=["1-part", "2-parts", "3-parts"])
def parts(request, monkeypatch):
    """The number of threads a forward splits each stage's rows across.

    Unpinned BLAS means one part, so without this the split would not
    run under the test suite's environment."""
    with ThreadPoolExecutor(max(1, request.param - 1)) as pool:
        split_rows(monkeypatch, request.param, pool)
        yield request.param


# (frames, parts): after the stride-2 prologue, 301, 403 and 601 frames
# give every stage 151, 202 and 301 rows: 2 (75 + 76), 2 and 4 row blocks
# on 2 parts, and 2, 3 (67 + 67 + 68) and 3 on 3 parts
_LENGTHS_AND_PARTS = [(t, p) for t in (1, 2, 7, 60, 301, 403, 601) for p in (1, 2, 3)]


@pytest.mark.parametrize("folded", [False, True], ids=["bn", "folded"])
@pytest.mark.parametrize("log_probs", [True, False], ids=["log-probs", "raw"])
@pytest.mark.parametrize("t,parts", _LENGTHS_AND_PARTS, indirect=["parts"],
                         ids=[str(t) if p == 1 else f"{t}-{p}-parts"
                              for t, p in _LENGTHS_AND_PARTS])
def test_forward_is_bitwise_the_reference(small_net, parts, folded, log_probs, t):
    cfg, weights = small_net
    if folded:
        weights = net.fold_batchnorm(cfg, weights)
    feats = rand_features(np.random.default_rng(t), t)
    assert np.array_equal(net.forward(cfg, weights, feats, log_probs),
                          reference_forward(cfg, weights, feats, log_probs))


def test_full_size_forward_is_bitwise_the_reference(tmp_path, monkeypatch):
    # the 10 s noise clip of acceptance criterion 04: 500 rows a stage,
    # 6 row blocks on 1 or 2 helpers; folded and unfolded weights
    cfg = net.quartznet15x5(28)
    weights = net.random_weights(cfg, seed=0)
    rng = np.random.default_rng(7)
    write_wav(tmp_path / "noise10s.wav", rng.uniform(-0.5, 0.5, 10 * 16000))
    feats = normalize_features(logmel(load_wav(tmp_path / "noise10s.wav"), FeatureConfig()))
    for weights in (weights, net.fold_batchnorm(cfg, weights)):
        want = reference_forward(cfg, weights, feats)
        for parts in (1, 2, 3):
            with ThreadPoolExecutor(max(1, parts - 1)) as pool:
                split_rows(monkeypatch, parts, pool)
                assert np.array_equal(net.forward(cfg, weights, feats), want), \
                    f"{parts} parts, folded={weights.folded}"


def test_exception_in_a_helper_block_comes_out_of_forward(small_net, monkeypatch):
    monkeypatch.setattr(net, "_PARTS", 2)
    cfg, weights = small_net
    caller = threading.current_thread()
    held, helper_failed = threading.Event(), threading.Event()
    rows = net._Conv.rows

    def failing_on_helpers(self, *args):
        if threading.current_thread() is not caller:
            helper_failed.set()
            raise RuntimeError("block failed on a helper")
        if not held.is_set():  # hold the caller's first block until a helper takes one
            held.set()
            helper_failed.wait(timeout=30)
        return rows(self, *args)

    monkeypatch.setattr(net._Conv, "rows", failing_on_helpers)
    with pytest.raises(RuntimeError, match="block failed on a helper"):
        net.forward(cfg, weights, rand_features(np.random.default_rng(0), 601))
    assert helper_failed.is_set()


def test_concurrent_forwards_sharing_the_helpers_are_bitwise_the_reference(small_net,
                                                                           monkeypatch):
    # library callers may run forwards on threads: they split rows over one pool
    monkeypatch.setattr(net, "_PARTS", 2)
    cfg, weights = small_net
    feats = [rand_features(np.random.default_rng(t), t) for t in (601, 403, 777)]
    want = [reference_forward(cfg, weights, f) for f in feats]
    got = [[] for _ in feats]

    def run(i):
        for _ in range(3):
            got[i].append(net.forward(cfg, weights, feats[i]))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(feats))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for outs, ref in zip(got, want):
        assert len(outs) == 3
        assert all(np.array_equal(out, ref) for out in outs)


# ----------------------------------------------------------------- folding

def test_unit_without_batch_norm_or_bias_names_the_missing_bias(small_cfg):
    tensors = dict(net.random_weights(small_cfg).tensors)
    for part in ("gamma", "beta", "mean", "var"):
        del tensors[f"b1.s2.bn.{part}"]
    with pytest.raises(WeightError, match="b1.s2.bias"):
        net.forward(small_cfg, net.NetworkWeights(tensors), np.zeros((4, 8), np.float32))


def test_fold_equivalence_many_nets(small_cfg):
    worst = 0.0
    for seed in range(10):
        weights = net.random_weights(small_cfg, seed=seed)
        folded = net.fold_batchnorm(small_cfg, weights)
        feats = rand_features(np.random.default_rng(100 + seed), 60)
        a = net.forward(small_cfg, weights, feats)
        b = net.forward(small_cfg, folded, feats)
        worst = max(worst, float(np.abs(a - b).max()))
    assert worst <= 1e-5


def test_fold_identity_bn_keeps_kernels(small_cfg):
    weights = net.random_weights(small_cfg, seed=1)
    tensors = dict(weights.tensors)
    for name in list(tensors):
        if name.endswith(".bn.gamma"):
            tensors[name] = np.ones_like(tensors[name])
        elif name.endswith((".bn.beta", ".bn.mean")):
            tensors[name] = np.zeros_like(tensors[name])
        elif name.endswith(".bn.var"):
            tensors[name] = np.ones_like(tensors[name])
    folded = net.fold_batchnorm(small_cfg, net.NetworkWeights(tensors))
    # scale is 1/sqrt(1 + eps), not exactly 1; kernels match to ~1e-5
    for name, value in tensors.items():
        if name.endswith(".pw") or name.endswith(".dw"):
            assert np.allclose(folded[name], value, rtol=2e-5, atol=0)
    for name in folded.tensors:
        assert ".bn." not in name


def test_fold_removes_bn_and_sets_flag(small_cfg):
    weights = net.random_weights(small_cfg, seed=2)
    assert not weights.folded
    folded = net.fold_batchnorm(small_cfg, weights)
    assert folded.folded
    assert not any(".bn." in name for name in folded.tensors)
    assert net.param_count(small_cfg) != sum(
        v.size for v in folded.tensors.values()
    )  # BN affine pairs became per-channel biases


def test_fold_twice_rejected(small_cfg):
    weights = net.random_weights(small_cfg, seed=2)
    folded = net.fold_batchnorm(small_cfg, weights)
    with pytest.raises(WeightError, match="folded"):
        net.fold_batchnorm(small_cfg, folded)


def test_fold_rejects_nonpositive_variance(small_cfg):
    weights = net.random_weights(small_cfg, seed=2)
    tensors = dict(weights.tensors)
    bad = tensors["c1.bn.var"].copy()
    bad[0] = 0.0
    tensors["c1.bn.var"] = bad
    with pytest.raises(WeightError):
        net.fold_batchnorm(small_cfg, net.NetworkWeights(tensors))


def test_folded_forward_still_log_softmax(small_cfg):
    weights = net.random_weights(small_cfg, seed=5)
    folded = net.fold_batchnorm(small_cfg, weights)
    out = net.forward(small_cfg, folded, rand_features(np.random.default_rng(2), 21))
    assert np.allclose(np.exp(out.astype(np.float64)).sum(axis=1), 1.0, atol=1e-5)


# ------------------------------------------------------- residual integrity

def test_residual_block_reduces_to_skip_projection():
    cfg = net.NetConfig(
        vocab_size=23, input_features=8,
        prologue=net.ConvSpec(kernel=1, channels=8, stride=1),
        blocks=(net.BlockGroup(repeats=1, sub_blocks=2, kernel=5, channels=24),),
        epilogue=(),
    )
    rng = np.random.default_rng(0)
    proj = rng.normal(0, 0.5, (8, 24)).astype(np.float32)
    bias = rng.normal(0, 0.5, 24).astype(np.float32)
    tensors = {
        "c1.dw": np.ones((1, 8), dtype=np.float32),
        "c1.pw": np.eye(8, dtype=np.float32),
        "c1.bias": np.zeros(8, dtype=np.float32),
        "b1.s1.dw": np.zeros((5, 8), dtype=np.float32),
        "b1.s1.pw": np.zeros((8, 24), dtype=np.float32),
        "b1.s1.bias": np.zeros(24, dtype=np.float32),
        "b1.s2.dw": np.zeros((5, 24), dtype=np.float32),
        "b1.s2.pw": np.zeros((24, 24), dtype=np.float32),
        "b1.s2.bias": np.zeros(24, dtype=np.float32),
        "b1.res.pw": proj,
        "b1.res.bias": bias,
        "c2.pw": np.eye(24, dtype=np.float32),
        "c2.bias": np.zeros(24, dtype=np.float32),
    }
    weights = net.NetworkWeights(tensors)
    net.validate_weights(cfg, weights)
    x = rng.normal(0, 1, (12, 8)).astype(np.float32)
    out = net.forward(cfg, weights, x, log_probs=False)
    # identity prologue still applies its activation before the block
    h = np.maximum(x.astype(np.float64), 0.0)
    want = np.maximum(h @ proj + bias, 0.0)
    assert np.allclose(out, want, atol=1e-5)


# ------------------------------------------------------------ receptive field

def test_receptive_field_quartznet():
    cfg = net.quartznet15x5(28)
    left, right = net.receptive_field_frames(cfg)
    assert (left, right) == (4028, 4028)
    seconds = net.receptive_field_seconds(cfg, FeatureConfig())
    assert seconds == pytest.approx(0.020 + (4028 + 4028) * 0.010)


def test_receptive_field_counts_whole_samples():
    # a 0.0101 s hop frames at round(161.6) = 162 samples
    cfg = net.quartznet15x5()
    left, right = net.receptive_field_frames(cfg)
    seconds = net.receptive_field_seconds(cfg, FeatureConfig(hop_length=0.0101))
    assert seconds == pytest.approx(((left + right) * 162 + 320) / 16000)
    assert seconds == pytest.approx(81.587)


def test_receptive_field_bounds_dependence(small_net):
    # rows outside the declared field must not influence an output row
    cfg, weights = small_net
    left, right = net.receptive_field_frames(cfg)
    t = 160
    rng = np.random.default_rng(8)
    feats = rand_features(rng, t)
    full = net.forward(cfg, weights, feats, log_probs=False)
    row = 40
    lo = max(0, row * 2 - left)
    hi = min(t, row * 2 + right + 1)
    masked = feats.copy()
    masked[:lo] = 9.0
    masked[hi:] = -9.0
    out = net.forward(cfg, weights, masked, log_probs=False)
    assert np.array_equal(out[row], full[row])
    # sanity: a change inside the window does move the row
    inside = feats.copy()
    inside[row * 2] += 1.0
    assert not np.array_equal(
        net.forward(cfg, weights, inside, log_probs=False)[row], full[row]
    )


# --------------------------------------------------------------- streaming

@pytest.fixture(scope="module")
def stream_setup():
    cfg = small_config()
    weights = net.random_weights(cfg, seed=11)
    feat_cfg = FeatureConfig(mel_bins=8)
    clip = AudioClip(tone(3.0, freq=523.0, amp=0.4))
    feats = normalize_features(logmel(clip, feat_cfg))
    full = net.forward(cfg, weights, feats)
    return cfg, weights, feat_cfg, clip, full


def test_streaming_matches_forward_across_chunk_sizes(stream_setup):
    # each conv carries its own context across pushes, so logits agree to
    # float noise (BLAS blocking differs with push length); transcripts match
    cfg, weights, feat_cfg, clip, full = stream_setup
    rf = net.receptive_field_seconds(cfg, feat_cfg)
    alphabet = AlphabetSpec(("a", "b", "c", "d", " "))
    for chunk in (rf, 0.8, 1.0, 1.5, 2.9, 0.01, 0.02, 0.05, 0.137, rf / 2):
        out = net.forward_streaming(cfg, weights, clip, chunk, feat_cfg=feat_cfg)
        assert out.shape == full.shape
        assert float(np.abs(out - full).max()) <= 1e-4, f"chunk={chunk}"
        assert greedy_decode(out, alphabet) == greedy_decode(full, alphabet)


@settings(max_examples=40, deadline=None)
@given(chunk=st.floats(min_value=0.01, max_value=4.0))
def test_streaming_any_chunk_matches_forward(stream_setup, chunk):
    cfg, weights, feat_cfg, clip, full = stream_setup
    alphabet = AlphabetSpec(("a", "b", "c", "d", " "))
    out = net.forward_streaming(cfg, weights, clip, chunk, feat_cfg=feat_cfg)
    assert out.shape == full.shape
    assert float(np.abs(out - full).max()) <= 1e-4
    assert greedy_decode(out, alphabet) == greedy_decode(full, alphabet)
    if int(chunk / feat_cfg.hop_length) >= feat_cfg.frame_count(len(clip.samples)):
        assert np.array_equal(out, full)


def test_streaming_row_count_example(stream_setup):
    cfg, weights, feat_cfg, _, _ = stream_setup
    clip = AudioClip(tone(10.0))
    out = net.forward_streaming(cfg, weights, clip, 5.0, feat_cfg=feat_cfg)
    t_full = feat_cfg.frame_count(len(clip.samples))
    assert out.shape[0] == math.ceil(t_full / 2)


def test_streaming_single_chunk_is_forward(stream_setup):
    cfg, weights, feat_cfg, clip, full = stream_setup
    out = net.forward_streaming(cfg, weights, clip, clip.duration + 1.0,
                                feat_cfg=feat_cfg)
    assert np.array_equal(out, full)


def test_split_streaming_matches_the_reference(stream_setup, parts):
    # a 10 s clip: one push gives the stages 500 rows, 3.3 s pushes about 165
    cfg, weights, feat_cfg, _, _ = stream_setup
    clip = AudioClip(tone(10.0, freq=523.0, amp=0.4))
    full = reference_forward(cfg, weights, normalize_features(logmel(clip, feat_cfg)))
    one = net.forward_streaming(cfg, weights, clip, clip.duration + 1.0, feat_cfg=feat_cfg)
    assert np.array_equal(one, full)
    out = net.forward_streaming(cfg, weights, clip, 3.3, feat_cfg=feat_cfg)
    assert out.shape == full.shape
    assert float(np.abs(out - full).max()) <= 1e-4


def test_streaming_refuses_features_of_the_wrong_width(stream_setup):
    cfg, weights, _, clip, _ = stream_setup
    feat_cfg = FeatureConfig(mel_bins=cfg.input_features + 1)
    feats = normalize_features(logmel(clip, feat_cfg))
    with pytest.raises(ValueError) as offline:
        net.forward(cfg, weights, feats)
    with pytest.raises(ValueError) as streamed:
        net.forward_streaming(cfg, weights, clip, 1.0, feat_cfg)
    assert str(streamed.value) == str(offline.value) == (
        f"features shape {feats.shape} does not match input_features={cfg.input_features}")


def _push_rows(monkeypatch):
    """The row count of every push forward_streaming makes, as it makes them."""
    rows = []
    push = net._Stream.push

    def recording(self, x, last):
        rows.append(x.shape[0])
        return push(self, x, last)

    monkeypatch.setattr(net._Stream, "push", recording)
    return rows


@pytest.mark.parametrize("chunk,step", [(0.29, 29), (85.0, 8500)])
def test_streaming_chunk_counts_whole_hops_in_samples(stream_setup, monkeypatch, chunk,
                                                      step):
    # 0.29 s is 4640 samples, 29 hops of 160, though 0.29 / 0.01 is 28.999...
    cfg, weights, feat_cfg, _, _ = stream_setup
    clip = AudioClip(tone(chunk + 1.0))
    rows = _push_rows(monkeypatch)
    net.forward_streaming(cfg, weights, clip, chunk, feat_cfg=feat_cfg)
    t = feat_cfg.frame_count(len(clip.samples))
    assert rows == [step] * (t // step) + [t % step]


def test_streaming_chunk_too_long_to_count_in_samples_is_one_push(stream_setup,
                                                                   monkeypatch):
    cfg, weights, feat_cfg, clip, full = stream_setup
    rows = _push_rows(monkeypatch)
    out = net.forward_streaming(cfg, weights, clip, 1e305, feat_cfg=feat_cfg)
    assert rows == [feat_cfg.frame_count(len(clip.samples))]
    assert np.array_equal(out, full)


@pytest.mark.parametrize("chunk", [math.inf, -math.inf, math.nan, 0.0, -1.0, 0.009])
def test_streaming_rejects_bad_chunk(stream_setup, chunk):
    cfg, weights, feat_cfg, clip, _ = stream_setup
    with pytest.raises(ValueError, match="chunk"):
        net.forward_streaming(cfg, weights, clip, chunk, feat_cfg=feat_cfg)


def _depthwise_convs(stream):
    for stage in stream.stages:
        for conv in getattr(stage, "subs", [stage]):
            if getattr(conv, "dw", None) is not None:
                yield conv.dw


def test_stream_state_is_bounded_and_owns_its_memory(small_net):
    cfg, weights = small_net
    feats = rand_features(np.random.default_rng(3), 200)
    stream = net._Stream(cfg, weights)
    for i in range(0, 200, 23):
        stream.push(feats[i:i + 23], last=i + 23 >= 200)
        for dw in _depthwise_convs(stream):
            assert dw.rows.shape[0] <= dw.dilation * (dw.kernel.shape[0] - 1) + dw.stride
            assert dw.rows.base is None
        for block in stream.stages:
            if isinstance(block, net._Block):
                lag = sum(sub.dw.span - 1 - sub.dw.pad_left for sub in block.subs)
                assert block.inputs.shape[0] <= lag
                assert block.inputs.base is None


@pytest.mark.parametrize("kernel,stride,dilation", [(1, 2, 1), (2, 3, 1), (3, 2, 3), (6, 3, 2)])
def test_streaming_strided_prologue_matches_forward(kernel, stride, dilation):
    # covers spans shorter than the stride, where a push can end inside
    # the rows the next output skips
    cfg = net.NetConfig(
        vocab_size=3, input_features=4,
        prologue=net.ConvSpec(kernel=kernel, channels=6, stride=stride, dilation=dilation),
        blocks=(net.BlockGroup(repeats=1, sub_blocks=2, kernel=4, channels=5),),
        epilogue=(net.ConvSpec(kernel=3, channels=7, dilation=2),),
    )
    weights = net.random_weights(cfg, seed=0)
    rng = np.random.default_rng(kernel * 10 + stride)
    for t in (1, 2, 5, 13, 31):
        feats = rng.normal(0, 1, (t, 4)).astype(np.float32)
        empty = feats[:0]
        full = net.forward(cfg, weights, feats, log_probs=False)
        for step in (1, 2, 3, 7):
            # an empty push before every chunk; the last flag goes on the
            # final chunk or on one more empty push
            for empty_last in (False, True):
                stream = net._Stream(cfg, weights)
                outs = []
                for i in range(0, t, step):
                    outs.append(stream.push(empty, last=False))
                    outs.append(stream.push(feats[i:i + step],
                                            last=i + step >= t and not empty_last))
                if empty_last:
                    outs.append(stream.push(empty, last=True))
                out = np.concatenate(outs)
                assert out.shape == full.shape
                assert float(np.abs(out - full).max()) <= 1e-4
    only_empty = net._Stream(cfg, weights).push(np.zeros((0, 4), dtype=np.float32), last=True)
    assert only_empty.shape == (0, cfg.vocab_size + 1)


# -------------------------------------------------------------- adaptation

@pytest.fixture(scope="module")
def en_model():
    cfg = small_config(vocab_size=28)
    return cfg, net.random_weights(cfg, seed=21)


def test_adapt_extend_preserves_shared_logits(en_model):
    cfg, weights = en_model
    src, tgt = ALPHABETS["en"], ALPHABETS["es"]
    new_cfg, new_weights = net.adapt_alphabet(cfg, weights, src, tgt, init="zero")
    assert new_cfg.vocab_size == 29

    feats = rand_features(np.random.default_rng(0), 33)
    before = net.forward(cfg, weights, feats, log_probs=False)
    after = net.forward(new_cfg, new_weights, feats, log_probs=False)
    ncol = tgt.index("ñ")
    shared = [tgt.index(s) for s in src.symbols]
    assert np.array_equal(after[:, shared], before[:, [src.index(s) for s in src.symbols]])
    assert np.array_equal(after[:, -1], before[:, -1])       # blank column
    assert np.all(after[:, ncol] == 0.0)                      # zero-init row


def test_adapt_shrink_preserves_shared_logits(en_model):
    cfg, weights = en_model
    src, tgt = ALPHABETS["en"], ALPHABETS["es"]
    es_cfg, es_weights = net.adapt_alphabet(cfg, weights, src, tgt, init="uniform",
                                            scale=0.05, seed=3)

    it_cfg, it_weights = net.adapt_alphabet(es_cfg, es_weights, tgt, ALPHABETS["it"])
    assert it_cfg.vocab_size == 28

    feats = rand_features(np.random.default_rng(1), 21)
    es_out = net.forward(es_cfg, es_weights, feats, log_probs=False)
    it_out = net.forward(it_cfg, it_weights, feats, log_probs=False)
    assert it_out.shape[1] == es_out.shape[1] - 1
    kept = [tgt.index(s) for s in ALPHABETS["it"].symbols] + [tgt.size]
    assert np.array_equal(it_out, es_out[:, kept])


def test_adapt_identity_is_bitwise_noop(en_model):
    cfg, weights = en_model
    al = ALPHABETS["en"]
    new_cfg, new_weights = net.adapt_alphabet(cfg, weights, al, al)
    assert new_cfg == cfg
    assert set(new_weights.tensors) == set(weights.tensors)
    for name, value in weights.tensors.items():
        assert np.array_equal(new_weights[name], value)


def test_adapt_preserves_greedy_on_dominant_head(en_model):
    cfg, weights = en_model
    tensors = dict(weights.tensors)
    tensors["c4.bias"] = tensors["c4.bias"] + 10.0   # keep old logits above 0
    strong = net.NetworkWeights(tensors)
    src, tgt = ALPHABETS["en"], ALPHABETS["es"]
    new_cfg, new_weights = net.adapt_alphabet(cfg, strong, src, tgt)
    feats = rand_features(np.random.default_rng(5), 50)
    assert greedy_decode(net.forward(cfg, strong, feats), src) == greedy_decode(
        net.forward(new_cfg, new_weights, feats), tgt
    )


def test_adapt_uniform_init_bounded_and_seeded(en_model):
    cfg, weights = en_model
    src, tgt = ALPHABETS["en"], ALPHABETS["es"]
    _, a = net.adapt_alphabet(cfg, weights, src, tgt, init="uniform", scale=0.01, seed=9)
    _, b = net.adapt_alphabet(cfg, weights, src, tgt, init="uniform", scale=0.01, seed=9)
    col = tgt.index("ñ")
    head = a["c4.pw"][:, col]
    assert np.all(np.abs(head) <= 0.01)
    assert np.any(head != 0.0)
    assert np.array_equal(a["c4.pw"], b["c4.pw"])


# sha256 over (name, float32 bytes) of the head tensors c4.pw and c4.bias
# after en -> es (uniform, scale 0.05, seed 3) and then es -> it (zero)
# from en_model, as first recorded
ADAPTED_HEAD_SHA256 = "93862e61af3d76b49a5ee582624733ff963309a91b5ab3a524ca66ece5277410"


def test_adapted_head_is_pinned(en_model):
    cfg, weights = en_model
    en, es, it = ALPHABETS["en"], ALPHABETS["es"], ALPHABETS["it"]
    es_cfg, es_weights = net.adapt_alphabet(cfg, weights, en, es, init="uniform",
                                            scale=0.05, seed=3)
    _, it_weights = net.adapt_alphabet(es_cfg, es_weights, es, it)
    digest = hashlib.sha256()
    for adapted in (es_weights, it_weights):
        for name in ("c4.pw", "c4.bias"):
            digest.update(name.encode())
            digest.update(adapted[name].tobytes())
    assert digest.hexdigest() == ADAPTED_HEAD_SHA256


def test_adapt_rejects_bad_init_and_vocab(en_model):
    cfg, weights = en_model
    src, tgt = ALPHABETS["en"], ALPHABETS["es"]
    with pytest.raises(ValueError, match="init"):
        net.adapt_alphabet(cfg, weights, src, tgt, init="normal")
    with pytest.raises(ValueError, match="vocab_size"):
        net.adapt_alphabet(cfg, weights, tgt, src)


# ---------------------------------------------------------------- weight IO

def test_validate_rejects_missing_tensor(small_cfg):
    weights = net.random_weights(small_cfg, seed=0)
    tensors = dict(weights.tensors)
    del tensors["b1.s2.pw"]
    with pytest.raises(WeightError, match="b1.s2.pw"):
        net.validate_weights(small_cfg, net.NetworkWeights(tensors))


def test_validate_rejects_shape_mismatch(small_cfg):
    weights = net.random_weights(small_cfg, seed=0)
    tensors = dict(weights.tensors)
    tensors["c1.pw"] = tensors["c1.pw"][:, :-1]
    with pytest.raises(WeightError, match="shape"):
        net.validate_weights(small_cfg, net.NetworkWeights(tensors))


def test_validate_rejects_stray_tensor(small_cfg):
    weights = net.random_weights(small_cfg, seed=0)
    tensors = dict(weights.tensors)
    tensors["extra.pw"] = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(WeightError):
        net.validate_weights(small_cfg, net.NetworkWeights(tensors))


def test_blob_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "zeta": rng.normal(size=(3, 4)).astype(np.float32),
        "alpha": rng.normal(size=(7,)).astype(np.float32),
    }
    net.write_tensor_blob(tmp_path, tensors)
    back, manifest = net.read_tensor_blob(tmp_path)
    assert set(back) == {"zeta", "alpha"}
    for name in tensors:
        assert np.array_equal(back[name], tensors[name])
    names = [t["name"] for t in manifest["tensors"]]
    assert names == sorted(names)
    assert manifest["checksum"].startswith("sha256:")


def test_save_load_round_trip(tmp_path, small_cfg):
    cfg = small_config(vocab_size=28)
    weights = net.random_weights(cfg, seed=13)
    feat_cfg = FeatureConfig(mel_bins=8)
    net.save_weights(tmp_path, cfg, weights, feat_cfg, ALPHABETS["en"],
                     name="unit")
    model = net.load_weights(tmp_path)
    assert model.name == "unit"
    assert model.net == cfg
    assert model.features == feat_cfg
    assert model.alphabet == ALPHABETS["en"]
    for name, value in weights.tensors.items():
        assert np.array_equal(model.weights[name], value)


def test_load_reports_deleted_tensor(tmp_path):
    cfg = small_config(vocab_size=28)
    net.save_weights(tmp_path, cfg, net.random_weights(cfg, seed=1),
                     FeatureConfig(mel_bins=8), ALPHABETS["en"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["tensors"] = [
        t for t in manifest["tensors"] if t["name"] != "b1.s1.dw"
    ]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(WeightError, match="b1.s1.dw"):
        net.load_weights(tmp_path)


def test_load_rejects_truncated_blob(tmp_path):
    cfg = small_config(vocab_size=28)
    net.save_weights(tmp_path, cfg, net.random_weights(cfg, seed=1),
                     FeatureConfig(mel_bins=8), ALPHABETS["en"])
    blob = (tmp_path / "weights.bin").read_bytes()
    (tmp_path / "weights.bin").write_bytes(blob[:-100])
    with pytest.raises(WeightError, match="checksum|truncated"):
        net.load_weights(tmp_path)


def test_save_rejects_vocab_alphabet_mismatch(tmp_path):
    cfg = small_config(vocab_size=28)
    with pytest.raises(ValueError, match="vocab"):
        net.save_weights(tmp_path, cfg, net.random_weights(cfg, seed=1),
                         FeatureConfig(mel_bins=8), ALPHABETS["es"])


@pytest.mark.parametrize("change,message", [("missing", "missing tensor 'b1.s2.dw'"),
                                            ("extra", r"unexpected tensors: \['stray'\]")],
                         ids=["missing", "extra"])
def test_save_rejects_weights_that_load_would_refuse(tmp_path, change, message):
    cfg = small_config(vocab_size=28)
    tensors = dict(net.random_weights(cfg, seed=1).tensors)
    if change == "missing":
        del tensors["b1.s2.dw"]
    else:
        tensors["stray"] = np.zeros(3, dtype=np.float32)
    with pytest.raises(WeightError, match=message):
        net.save_weights(tmp_path / "m", cfg, net.NetworkWeights(tensors),
                         FeatureConfig(mel_bins=8), ALPHABETS["en"])
    assert not (tmp_path / "m").exists()  # refused before anything is written


def test_load_rejects_tampered_alphabet(tmp_path):
    cfg = small_config(vocab_size=28)
    net.save_weights(tmp_path, cfg, net.random_weights(cfg, seed=1),
                     FeatureConfig(mel_bins=8), ALPHABETS["en"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["alphabet"] = dataclasses.asdict(ALPHABETS["es"])
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(WeightError):
        net.load_weights(tmp_path)


def test_loaded_tensors_are_read_only_views_of_the_blob(tmp_path):
    cfg = small_config(vocab_size=28)
    net.save_weights(tmp_path, cfg, net.random_weights(cfg, seed=1),
                     FeatureConfig(mel_bins=8), ALPHABETS["en"])
    for tensor in net.load_weights(tmp_path).weights.tensors.values():
        assert not tensor.flags.owndata
        assert not tensor.flags.writeable


def test_read_rejects_non_object_manifest(tmp_path):
    net.write_tensor_blob(tmp_path, {"x": np.zeros(2, dtype=np.float32)})
    (tmp_path / "manifest.json").write_text("[]")
    with pytest.raises(WeightError, match="object"):
        net.read_tensor_blob(tmp_path)


@pytest.mark.parametrize("entry", [
    {"shape": [2], "offset": "zero"},
    {"name": ["x"]},
    {"shape": [-1], "length": -4},
    {"shape": [float("inf")]},
    {"shape": [2 ** 32, 2 ** 32], "length": 0},  # wraps to 0 in int64
    {"shape": [1] * 65, "length": 4},  # more dimensions than numpy has
])
def test_read_rejects_bad_tensor_entry(tmp_path, entry):
    net.write_tensor_blob(tmp_path, {"x": np.zeros(2, dtype=np.float32)})
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["tensors"][0].update(entry)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(WeightError):
        net.read_tensor_blob(tmp_path)


@pytest.mark.parametrize("entry", [
    {"offset": "0"},
    {"offset": False},
    {"offset": 0.0},
    {"shape": ["2"], "length": "8"},
    {"shape": [2.5]},  # int() would read 2
    {"shape": "2"},  # iterating it would read (2,)
    {"shape": [1], "offset": 2, "length": 4},  # inside the blob, unaligned
])
def test_read_refuses_entries_the_writer_never_writes(tmp_path, entry):
    # table values are JSON integers and offsets multiples of 4
    net.write_tensor_blob(tmp_path, {"x": np.zeros(2, dtype=np.float32)})
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["tensors"][0].update(entry)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(WeightError, match="'x'"):
        net.read_tensor_blob(tmp_path)


def test_read_refuses_a_tensor_listed_twice(tmp_path):
    net.write_tensor_blob(tmp_path, {"x": np.zeros(2, dtype=np.float32)})
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["tensors"].append({**manifest["tensors"][0], "shape": [1], "length": 4})
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(WeightError, match="'x'.*twice"):
        net.read_tensor_blob(tmp_path)


def _rewrite_manifest(directory, edit):
    path = directory / net.MANIFEST_NAME
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    return path


@pytest.mark.parametrize("checksum", [None, 5, "md5:00"])
def test_read_refuses_a_malformed_checksum(tmp_path, checksum):
    net.write_tensor_blob(tmp_path, {"x": np.zeros(2, dtype=np.float32)})
    path = _rewrite_manifest(tmp_path, lambda m: m.update(checksum=checksum))
    with pytest.raises(WeightError) as info:
        net.read_tensor_blob(tmp_path)
    assert str(info.value) == f"{path}: missing or malformed checksum"


@pytest.mark.parametrize("entry,message", [
    ({"dtype": "f64"}, "unsupported dtype 'f64'"),
    ({"shape": [2.0]}, "shape, offset and length must be JSON integers"),
    ({"length": 12}, "offset/length outside blob"),
    ({"shape": [1], "offset": 2, "length": 4}, "offset 2 is not a multiple of 4"),
    ({"shape": [1] * 100, "length": 4}, ""),
    (None, "listed twice"),
], ids=["dtype", "shape", "length", "offset", "dimensions", "twice"])
def test_read_entry_errors_name_the_manifest(tmp_path, entry, message):
    net.write_tensor_blob(tmp_path, {"x": np.zeros(2, dtype=np.float32)})

    def edit(manifest):
        tensors = manifest["tensors"]
        if entry is None:
            tensors.append(dict(tensors[0]))
        else:
            tensors[0].update(entry)

    path = _rewrite_manifest(tmp_path, edit)
    with pytest.raises(WeightError) as info:
        net.read_tensor_blob(tmp_path)
    assert str(info.value).startswith(f"{path}: tensor 'x': {message}")


def test_validate_rejects_non_positive_variance(small_cfg):
    tensors = dict(net.random_weights(small_cfg, seed=0).tensors)
    tensors["c1.bn.var"] = tensors["c1.bn.var"].copy()
    tensors["c1.bn.var"][0] = 0.0
    with pytest.raises(WeightError, match="^c1.bn.var must be strictly positive$"):
        net.validate_weights(small_cfg, net.NetworkWeights(tensors))


@pytest.mark.parametrize("edit,message", [
    (lambda m: m.pop("net"), "model manifest lacks the 'net' section"),
    (lambda m: m.update(alphabet=dataclasses.asdict(ALPHABETS["es"])),
     "manifest alphabet size disagrees with net vocab_size"),
    (lambda m: m["features"].update(mel_bins=9),
     "manifest features mel_bins disagrees with net input_features"),
    (lambda m: m["net"].update(vocab_size="x"), "malformed model manifest section: "),
    (lambda m: m["tensors"].pop(), "missing tensor "),
], ids=["section", "alphabet", "mel-bins", "malformed", "validate"])
def test_load_errors_name_the_manifest(tmp_path, edit, message):
    cfg = small_config(vocab_size=28)
    net.save_weights(tmp_path, cfg, net.random_weights(cfg, seed=1),
                     FeatureConfig(mel_bins=8), ALPHABETS["en"])
    path = _rewrite_manifest(tmp_path, edit)
    for where in (tmp_path, path):
        with pytest.raises(WeightError) as info:
            net.load_weights(where)
        assert str(info.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("name", [net.MANIFEST_NAME, net.BLOB_NAME])
def test_load_names_a_file_it_cannot_read(tiny_model_dir, tmp_path, name):
    for other in (net.MANIFEST_NAME, net.BLOB_NAME):
        if other != name:
            (tmp_path / other).write_bytes((tiny_model_dir / other).read_bytes())
    (tmp_path / name).mkdir()
    with pytest.raises(WeightError, match=name):
        net.load_weights(tmp_path)


def _read_in_two_passes(directory):
    """The tensors of a valid blob as the reader read them before it
    hashed while reading: the whole file, its sha256, then frombuffer."""
    manifest = json.loads((directory / net.MANIFEST_NAME).read_text())
    blob = (directory / net.BLOB_NAME).read_bytes()
    assert manifest["checksum"] == "sha256:" + hashlib.sha256(blob).hexdigest()
    return {t["name"]: np.frombuffer(blob, dtype="<f4", count=math.prod(t["shape"]),
                                     offset=t["offset"]).reshape(t["shape"])
            for t in manifest["tensors"]}


@pytest.mark.parametrize("floats", [0, 1, 6, 7, 8, 13, 14, 15, 21])
def test_chunked_read_matches_two_pass_read(tmp_path, monkeypatch, floats):
    # 7-byte chunks: blobs of 4 * floats bytes end before, at (28 and 56
    # bytes) and after a chunk boundary; 0 floats is the empty tensor set
    monkeypatch.setattr(net, "_BLOB_CHUNK", 7)
    rng = np.random.default_rng(floats)
    tensors = {"empty": np.zeros((0, 3), np.float32),
               "scalar": np.asarray(rng.normal(), dtype=np.float32),
               "rest": rng.normal(size=floats - 1).astype(np.float32)} if floats else {}
    net.write_tensor_blob(tmp_path, tensors)
    assert (tmp_path / net.BLOB_NAME).stat().st_size == 4 * floats
    got, _ = net.read_tensor_blob(tmp_path)
    want = _read_in_two_passes(tmp_path)
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype and got[name].shape == want[name].shape
        assert got[name].tobytes() == want[name].tobytes()
        assert not got[name].flags.writeable


@pytest.mark.parametrize("flip", [0, 24, 40, -1])
def test_chunked_read_rejects_a_flipped_byte(tmp_path, monkeypatch, flip):
    # 44 bytes in 7-byte chunks: a byte of the first, a middle and the
    # last chunk, and the last byte
    monkeypatch.setattr(net, "_BLOB_CHUNK", 7)
    net.write_tensor_blob(tmp_path, {"x": np.arange(11, dtype=np.float32)})
    blob = bytearray((tmp_path / net.BLOB_NAME).read_bytes())
    blob[flip] ^= 0x01
    (tmp_path / net.BLOB_NAME).write_bytes(bytes(blob))
    with pytest.raises(WeightError, match="checksum mismatch"):
        net.read_tensor_blob(tmp_path)


def test_chunked_read_rejects_a_blob_one_byte_short(tmp_path, monkeypatch):
    monkeypatch.setattr(net, "_BLOB_CHUNK", 7)
    net.write_tensor_blob(tmp_path, {"x": np.arange(7, dtype=np.float32)})
    short = (tmp_path / net.BLOB_NAME).read_bytes()[:-1]
    (tmp_path / net.BLOB_NAME).write_bytes(short)
    with pytest.raises(WeightError, match="checksum mismatch"):
        net.read_tensor_blob(tmp_path)
    # with its checksum, the entry reaches past it
    manifest = json.loads((tmp_path / net.MANIFEST_NAME).read_text())
    manifest["checksum"] = "sha256:" + hashlib.sha256(short).hexdigest()
    (tmp_path / net.MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(WeightError, match="outside blob"):
        net.read_tensor_blob(tmp_path)


def test_write_makes_no_copy_of_the_blob(tmp_path):
    tensors = {f"t{i:02d}": np.full(1 << 18, i, dtype=np.float32) for i in range(16)}
    tracemalloc.start()
    try:
        net.write_tensor_blob(tmp_path, tensors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20  # the blob is 16 MiB
    back, _ = net.read_tensor_blob(tmp_path)
    assert all(np.array_equal(back[name], tensors[name]) for name in tensors)


@pytest.mark.parametrize("text", ['{"tensors": [], "x": 1' + "0" * 5000 + "}",
                                  "[" * 100000 + "]" * 100000])
def test_read_rejects_unparsable_manifest(tmp_path, text):
    net.write_tensor_blob(tmp_path, {"x": np.zeros(2, dtype=np.float32)})
    (tmp_path / "manifest.json").write_text(text)
    with pytest.raises(WeightError, match="invalid JSON"):
        net.read_tensor_blob(tmp_path)


@pytest.mark.parametrize("section,key,value", [
    ("prologue", "stride", 0),
    ("prologue", "dilation", 2.5),
    ("prologue", "kernel", "5"),
    ("prologue", "channels", True),
    ("blocks", "repeats", None),
    ("blocks", "repeats", 10 ** 30),  # refused before its plan is built
    ("blocks", "sub_blocks", 10 ** 30),
    ("net", "vocab_size", 28.0),
    ("features", "fft_size", 500.0),
    ("features", "mel_bins", True),
    ("features", "log_epsilon", "tiny"),
    ("features", "log_epsilon", -1.0),
    ("features", "log_epsilon", 0.0),
    ("features", "log_epsilon", float("nan")),
    ("features", "window_length", 1e308),
    ("alphabet", "blank_index", float("inf")),
])
def test_load_rejects_bad_config_value(tiny_model_dir, tmp_path, section, key, value):
    manifest = json.loads((tiny_model_dir / net.MANIFEST_NAME).read_text())
    if section in ("prologue", "blocks"):
        spec = manifest["net"][section]
        (spec[0] if section == "blocks" else spec)[key] = value
    else:
        manifest[section][key] = value
    (tmp_path / net.MANIFEST_NAME).write_text(json.dumps(manifest))
    (tmp_path / net.BLOB_NAME).write_bytes((tiny_model_dir / net.BLOB_NAME).read_bytes())
    with pytest.raises(WeightError):
        net.load_weights(tmp_path)


def _edit(section):
    """A function that finds ``section`` in a manifest."""
    return {"net": lambda m: m["net"],
            "blocks": lambda m: m["net"]["blocks"][0],
            "epilogue": lambda m: m["net"]["epilogue"][1],
            "features": lambda m: m["features"],
            "alphabet": lambda m: m["alphabet"]}[section]


@pytest.mark.parametrize("section,key,value", [
    ("net", "junk", 1),
    ("blocks", "junk", 1),
    ("features", "junk", 1),
    ("alphabet", "junk", 1),
    ("epilogue", "separable", "false"),
    ("blocks", "residual", 1),
])
def test_load_rejects_unknown_key_or_non_bool_flag(tiny_model_dir, tmp_path, section, key,
                                                   value):
    # each section is its dataclass's keyword arguments, nothing else
    _assert_edit_refused(tiny_model_dir, tmp_path, section, key, value)


_EN = "".join(ALPHABETS["en"].symbols)


@pytest.mark.parametrize("section,key,value", [
    ("features", "hop_length", True),
    ("features", "log_epsilon", False),
    ("alphabet", "symbols", _EN),
    ("alphabet", "symbols", dict.fromkeys(_EN, 1)),
])
def test_load_rejects_json_of_another_type(tiny_model_dir, tmp_path, section, key, value):
    # a JSON boolean is no number, and symbols are a list of strings, as
    # in an alphabet file
    _assert_edit_refused(tiny_model_dir, tmp_path, section, key, value)


def _assert_edit_refused(tiny_model_dir, tmp_path, section, key, value):
    """Setting ``key`` of a manifest section to ``value`` makes
    load_weights and `transcribe --model` refuse the model, naming key."""
    manifest = json.loads((tiny_model_dir / net.MANIFEST_NAME).read_text())
    _edit(section)(manifest)[key] = value
    model = tmp_path / "model"
    model.mkdir()
    (model / net.MANIFEST_NAME).write_text(json.dumps(manifest))
    (model / net.BLOB_NAME).write_bytes((tiny_model_dir / net.BLOB_NAME).read_bytes())
    with pytest.raises(WeightError, match=key):
        net.load_weights(model)
    wav = write_wav(tmp_path / "clip.wav", tone(0.3))
    code, err = run_quietly("transcribe", "--model", str(model), "--wav", str(wav))
    assert code == 2
    assert key in err


def test_net_section_fields_with_defaults_may_be_left_out(small_cfg):
    d = dataclasses.asdict(dataclasses.replace(small_cfg, input_features=64))
    del d["input_features"]
    assert net.NetConfig.from_dict(d).input_features == 64


# sha256 over (name, float32 bytes) of random_weights(small_config(), seed=0),
# tensors in name order, as first recorded. The benchmark model is drawn
# by the same code, so a change here changes the model it measures.
SMALL_RANDOM_WEIGHTS_SHA256 = "2c9353b982c7b3dddd5bd99e88527ebfa0d074a221d938c86467ca637e103809"


def test_random_weights_draw_stream_is_pinned():
    weights = net.random_weights(small_config(), seed=0)
    digest = hashlib.sha256()
    for name in sorted(weights.tensors):
        digest.update(name.encode())
        digest.update(weights.tensors[name].tobytes())
    assert digest.hexdigest() == SMALL_RANDOM_WEIGHTS_SHA256


@pytest.fixture(scope="module")
def fuzz_base(tiny_model_dir, tmp_path_factory):
    """The tiny model's manifest and blob bytes, and a clip to transcribe."""
    wav = write_wav(tmp_path_factory.mktemp("clip") / "clip.wav", tone(0.3))
    return ((tiny_model_dir / net.MANIFEST_NAME).read_bytes(),
            (tiny_model_dir / net.BLOB_NAME).read_bytes(), wav)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_read_tensor_blob_fuzz(fuzz_base, tmp_path_factory, data):
    """A mutated manifest.json and a truncated or flipped weights.bin: the
    reader returns or raises WeightError, and `transcribe --model` exits
    2 when it raises (0 or 2 when it reads)."""
    manifest, blob, wav = fuzz_base
    manifest = data.draw(st.one_of(st.just(manifest), fuzzed(manifest)), "manifest")
    cut = data.draw(st.one_of(st.none(), st.integers(0, len(blob) - 1)), "truncate")
    flip = data.draw(st.one_of(st.none(), st.integers(0, len(blob) - 1)), "flip")
    blob = bytearray(blob[:cut])
    if flip is not None and flip < len(blob):
        blob[flip] ^= 0x01
    d = tmp_path_factory.mktemp("blob")
    (d / net.MANIFEST_NAME).write_bytes(manifest)
    (d / net.BLOB_NAME).write_bytes(bytes(blob))
    try:
        net.read_tensor_blob(d)
        allowed = (0, 2)
    except ScriboError:
        allowed = (2,)
    assert run_quietly("transcribe", "--model", str(d), "--wav", str(wav))[0] in allowed


# ------------------------------------------------ groups without a residual

def plain_config():
    """small_config with no residual projection in its block group."""
    cfg = small_config()
    return dataclasses.replace(cfg, blocks=tuple(dataclasses.replace(g, residual=False)
                                                 for g in cfg.blocks))


def test_group_without_residual_is_bitwise_the_reference(monkeypatch):
    cfg = plain_config()
    weights = net.random_weights(cfg, seed=5)
    assert not any(name.endswith(".res.pw") for name in weights.tensors)
    blocks = [s for s in net._Stream(cfg, weights).stages if isinstance(s, net._Block)]
    assert blocks and all(b.res is None for b in blocks)
    feat_cfg = FeatureConfig(mel_bins=8)
    clip = AudioClip(tone(6.0, freq=523.0, amp=0.4))
    clip_feats = normalize_features(logmel(clip, feat_cfg))
    for folded in (weights, net.fold_batchnorm(cfg, weights)):
        want = reference_forward(cfg, folded, clip_feats)
        for parts in (1, 2):
            with ThreadPoolExecutor(max(1, parts - 1)) as pool:
                split_rows(monkeypatch, parts, pool)
                for t in (1, 7, 301, 601):
                    feats = rand_features(np.random.default_rng(t), t)
                    assert np.array_equal(net.forward(cfg, folded, feats),
                                          reference_forward(cfg, folded, feats)), (t, parts)
                one = net.forward_streaming(cfg, folded, clip, clip.duration + 1.0,
                                            feat_cfg=feat_cfg)
                assert np.array_equal(one, want), parts
                out = net.forward_streaming(cfg, folded, clip, 1.3, feat_cfg=feat_cfg)
                assert out.shape == want.shape
                assert float(np.abs(out - want).max()) <= 1e-4, parts


# ------------------------------------------------------ the read rule, scale

@pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, 1e308, -0.5])
def test_adapt_rejects_a_scale_that_is_not_a_float32_magnitude(en_model, scale):
    cfg, weights = en_model
    with pytest.raises(ValueError, match="scale must be a finite number from 0"):
        net.adapt_alphabet(cfg, weights, ALPHABETS["en"], ALPHABETS["es"], init="uniform",
                           scale=scale)


def test_adapt_takes_the_largest_scale(en_model):
    cfg, weights = en_model
    _, adapted = net.adapt_alphabet(cfg, weights, ALPHABETS["en"], ALPHABETS["es"],
                                    init="uniform", scale=net.MAX_INIT_SCALE)
    assert all(np.isfinite(t).all() for t in adapted.tensors.values())


def test_save_rejects_features_the_net_cannot_take(tmp_path):
    cfg = small_config()  # input_features=8
    with pytest.raises(ValueError, match="mel_bins"):
        net.save_weights(tmp_path, cfg, net.random_weights(cfg, seed=1),
                         FeatureConfig(mel_bins=40), AlphabetSpec(tuple("abcd ")))
    assert not list(tmp_path.iterdir())


def test_load_rejects_features_the_net_cannot_take(tiny_model_dir, tmp_path):
    manifest = json.loads((tiny_model_dir / net.MANIFEST_NAME).read_text())
    manifest["features"]["mel_bins"] = 40
    model = tmp_path / "model"
    model.mkdir()
    (model / net.MANIFEST_NAME).write_text(json.dumps(manifest))
    (model / net.BLOB_NAME).write_bytes((tiny_model_dir / net.BLOB_NAME).read_bytes())
    with pytest.raises(WeightError, match="mel_bins"):
        net.load_weights(model)
    # refused before the WAV is read: this one does not exist
    code, err = run_quietly("transcribe", "--model", str(model),
                            "--wav", str(tmp_path / "absent.wav"))
    assert code == 2
    assert "mel_bins" in err
