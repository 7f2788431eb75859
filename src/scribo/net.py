"""Separable-convolution acoustic model: forward inference and weights.

The network follows the QuartzNet15x5 layout: a stride-2 separable
prologue, five groups of residual blocks built from time-channel
separable convolutions (depthwise K x C then pointwise 1x1, batch norm,
ReLU), a dilated separable epilogue, and two pointwise heads ending in
vocab_size+1 log-softmax outputs for CTC.

Everything here is inference only and float32 throughout. Weights live
in a directory interchange format (manifest.json + weights.bin) and can
be batch-norm folded, chunk-streamed, and re-headed for a different
alphabet without disturbing any shared output column.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import WeightError, check_fields, opened, read_json
from .features import SAMPLE_RATE, AudioClip, FeatureConfig, logmel, normalize_features
from .textnorm import AlphabetSpec

BN_EPS = 1e-5


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class ConvSpec:
    """One standalone conv stage (prologue/epilogue unit)."""

    kernel: int
    channels: int
    stride: int = 1
    dilation: int = 1
    separable: bool = True

    def __post_init__(self):
        check_fields(self)
        if not self.separable and (self.kernel, self.stride, self.dilation) != (1, 1, 1):
            raise ValueError("a pointwise conv (separable=False) needs kernel, stride "
                             "and dilation 1")


@dataclass(frozen=True)
class BlockGroup:
    """A run of identical residual blocks.

    Each block is ``sub_blocks`` separable convs (BN+ReLU between, BN
    after the last) plus a pointwise+BN skip projection, summed before
    the block's final ReLU.
    """

    repeats: int
    sub_blocks: int
    kernel: int
    channels: int
    residual: bool = True

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class NetConfig:
    vocab_size: int
    input_features: int = 64
    prologue: ConvSpec = ConvSpec(kernel=33, channels=256, stride=2)
    blocks: tuple[BlockGroup, ...] = ()
    epilogue: tuple[ConvSpec, ...] = (
        ConvSpec(kernel=87, channels=512, dilation=2),
        ConvSpec(kernel=1, channels=1024, separable=False),
    )

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NetConfig":
        """Build from a manifest's ``net`` section: the keyword arguments,
        with the nested specs as the dicts ``asdict`` writes."""
        return cls(**{**d, "prologue": ConvSpec(**d["prologue"]),
                      "blocks": tuple(BlockGroup(**g) for g in d["blocks"]),
                      "epilogue": tuple(ConvSpec(**c) for c in d["epilogue"])})


def quartznet15x5(vocab_size: int = 28, input_features: int = 64) -> NetConfig:
    """The 15x5 preset: 5 groups x 3 blocks x 5 sub-convs, ~19M params."""
    kernels = (33, 39, 51, 63, 75)
    channels = (256, 256, 512, 512, 512)
    groups = tuple(
        BlockGroup(repeats=3, sub_blocks=5, kernel=k, channels=c)
        for k, c in zip(kernels, channels)
    )
    return NetConfig(vocab_size=vocab_size, input_features=input_features, blocks=groups)


# ---------------------------------------------------------------------------
# Layer plan: a flat description shared by forward, validation, counting


_BN_PARTS = ("gamma", "beta", "mean", "var")


@dataclass(frozen=True)
class _Unit:
    """One conv with its optional BN, as named in the weight set."""

    name: str
    kernel: int
    in_channels: int
    out_channels: int
    stride: int = 1
    dilation: int = 1
    separable: bool = True
    head: bool = False

    def parts(self, folded: bool = False) -> list[tuple[str, tuple[int, ...]]]:
        """(tensor suffix, shape) pairs in storage order.

        ``dw`` (separable units only) and ``pw``, then ``bias`` for the
        output head or a folded unit, else the four ``bn.*`` vectors.
        """
        parts = [("pw", (self.in_channels, self.out_channels))]
        if self.separable:
            parts.insert(0, ("dw", (self.kernel, self.in_channels)))
        if self.head or folded:
            return parts + [("bias", (self.out_channels,))]
        return parts + [(f"bn.{part}", (self.out_channels,)) for part in _BN_PARTS]


def _plan(cfg: NetConfig):
    """(standalone units before blocks, block descriptions, tail units).

    Blocks are (name, [sub units], residual unit or None) triples.
    """
    pro = cfg.prologue
    ch = pro.channels
    front = [_Unit("c1", pro.kernel, cfg.input_features, ch, pro.stride, pro.dilation,
                   pro.separable)]

    blocks = []
    index = 0
    for group in cfg.blocks:
        for _ in range(group.repeats):
            index += 1
            name = f"b{index}"
            subs = []
            sub_in = ch
            for j in range(1, group.sub_blocks + 1):
                subs.append(_Unit(f"{name}.s{j}", group.kernel, sub_in, group.channels))
                sub_in = group.channels
            res = _Unit(f"{name}.res", 1, ch, group.channels, separable=False) \
                if group.residual else None
            blocks.append((name, subs, res))
            ch = group.channels

    tail = []
    for i, spec in enumerate(cfg.epilogue, 2):
        tail.append(_Unit(f"c{i}", spec.kernel, ch, spec.channels, spec.stride,
                          spec.dilation, spec.separable))
        ch = spec.channels
    head_index = 2 + len(cfg.epilogue)
    tail.append(_Unit(f"c{head_index}", 1, ch, cfg.vocab_size + 1, separable=False,
                      head=True))
    return front, blocks, tail


def _all_units(cfg: NetConfig):
    front, blocks, tail = _plan(cfg)
    units = list(front)
    for _, subs, res in blocks:
        units.extend(subs)
        if res is not None:
            units.append(res)
    units.extend(tail)
    return units


def tensor_specs(cfg: NetConfig) -> dict[str, tuple[int, ...]]:
    """Expected tensor names and shapes for an unfolded weight set."""
    return {f"{u.name}.{suffix}": shape
            for u in _all_units(cfg) for suffix, shape in u.parts()}


def param_count(cfg: NetConfig) -> int:
    """Trainable parameters: kernels, BN affine pairs, head bias.

    BN running statistics are buffers, not parameters, and are not
    counted.
    """
    return sum(math.prod(shape) for u in _all_units(cfg) for suffix, shape in u.parts()
               if suffix not in ("bn.mean", "bn.var"))


# ---------------------------------------------------------------------------
# Weights


class NetworkWeights:
    """Named float32 tensors; treat as immutable after construction."""

    def __init__(self, tensors: dict[str, np.ndarray]):
        self.tensors = {k: np.asarray(v, dtype=np.float32) for k, v in tensors.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.tensors[name]
        except KeyError:
            raise WeightError(f"missing tensor {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    @property
    def folded(self) -> bool:
        return not any(n.endswith(".bn.gamma") for n in self.tensors)


def validate_weights(cfg: NetConfig, weights: NetworkWeights) -> None:
    """Check tensor presence and shapes; accepts folded or unfolded sets.

    Every conv needs its kernels; each non-head conv needs either the
    four BN tensors or (after folding) a bias. BN variances must be
    positive.
    """
    # every conv has at least two tensors: a config that needs more than
    # the set holds is refused before its (maybe huge) plan is built
    convs = 2 + len(cfg.epilogue) + sum(g.repeats * (g.sub_blocks + bool(g.residual))
                                        for g in cfg.blocks)
    if 2 * convs > len(weights.tensors):
        raise WeightError(f"config has {convs} convs, more than {len(weights.tensors)} "
                          f"tensors can hold")
    seen = set()
    for u in _all_units(cfg):
        folded = f"{u.name}.bn.gamma" not in weights and f"{u.name}.bias" in weights
        for suffix, shape in u.parts(folded):
            name = f"{u.name}.{suffix}"
            if name not in weights:
                raise WeightError(f"missing tensor {name!r}")
            t = weights[name]
            if tuple(t.shape) != shape:
                raise WeightError(f"tensor {name!r} has shape {tuple(t.shape)}, expected {shape}")
            if suffix == "bn.var" and not np.all(t > 0):
                raise WeightError(f"{name} must be strictly positive")
            seen.add(name)

    extra = set(weights.tensors) - seen
    if extra:
        raise WeightError(f"unexpected tensors: {sorted(extra)[:5]}")


# Draws per tensor suffix; kernels (dw is (K, C), pw is (C_in, C_out))
# scale by their fan-in, shape[0].
_INIT = {
    "dw": lambda rng, shape: rng.normal(0.0, 1.0 / math.sqrt(shape[0]), shape),
    "pw": lambda rng, shape: rng.normal(0.0, 1.0 / math.sqrt(shape[0]), shape),
    "bias": lambda rng, shape: rng.normal(0.0, 0.1, shape),
    "bn.gamma": lambda rng, shape: 1.0 + 0.1 * rng.standard_normal(shape),
    "bn.beta": lambda rng, shape: 0.1 * rng.standard_normal(shape),
    "bn.mean": lambda rng, shape: 0.1 * rng.standard_normal(shape),
    "bn.var": lambda rng, shape: rng.uniform(0.8, 1.25, shape),
}


def random_weights(cfg: NetConfig, seed: int = 0) -> NetworkWeights:
    """Variance-stable random weights for tests and benchmarks.

    Kernel scales keep activations near unit variance through the whole
    stack so numeric comparisons (BN folding, streaming) are meaningful
    rather than dominated by overflow or underflow.
    """
    rng = np.random.default_rng(seed)
    tensors = {f"{u.name}.{suffix}": _INIT[suffix](rng, shape).astype(np.float32)
               for u in _all_units(cfg) for suffix, shape in u.parts()}
    return NetworkWeights(tensors)


# ---------------------------------------------------------------------------
# Forward


def _bn_affine(tensors, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Unit ``name``'s batch norm (weight set or tensor dict) as
    y = x * scale + shift, with scale = gamma / sqrt(var + eps)."""
    scale = tensors[f"{name}.bn.gamma"] / np.sqrt(tensors[f"{name}.bn.var"] + BN_EPS)
    return scale, tensors[f"{name}.bn.beta"] - tensors[f"{name}.bn.mean"] * scale


# Thread-count variables of the BLAS/OpenMP runtimes, in the order
# OpenBLAS reads them.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# Fewest rows a stage hands to one thread. A row subset of an sgemm
# gives bitwise the rows of the whole product once it has a few rows
# (4 for the 512-wide layers in OpenBLAS); a row subset of the
# depthwise einsum always does.
_BLOCK_ROWS = 64


def _row_parts() -> int:
    """Threads one forward splits each stage's output rows across.

    With the BLAS thread count unset, BLAS spreads every matrix product
    over all cores, so rows are not split; pinned to n threads, it
    leaves usable cores // n parts.
    """
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    for var in THREAD_ENV:
        try:
            blas = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas >= 1:
            return max(1, cores // blas)
    return 1


_PARTS = _row_parts()
# ThreadPoolExecutor starts no thread before its first submit
_pool = ThreadPoolExecutor(max(1, _PARTS - 1), thread_name_prefix="scribo-rows")


def row_parts() -> int:
    """Threads one forward splits each stage's output rows across: the
    usable cores over the BLAS thread count, 1 when that is unset."""
    return _PARTS


def _in_row_blocks(n: int, fill) -> None:
    """Call ``fill(a, b)`` on row blocks [a, b) that together cover range(n).

    With one part, or fewer than two blocks of _BLOCK_ROWS rows, that is
    one call in the caller. Otherwise the caller and up to _PARTS - 1
    helpers take blocks from one shared list until it is empty; numpy
    releases the interpreter lock inside the arithmetic. The block count
    is a multiple of the parts where it can be, so that threads starting
    together get equal shares. The caller then cancels every helper that
    has not started, so a busy helper holds a stage up by at most one
    block, and re-raises a helper's exception.
    """
    count = n // _BLOCK_ROWS if _PARTS > 1 else 1
    if count > _PARTS:
        count -= count % _PARTS
    if count < 2:
        fill(0, n)
        return
    # next() on a list iterator is one call, atomic under the interpreter lock
    blocks = iter([(i * n // count, (i + 1) * n // count) for i in range(count)])

    def take():
        for a, b in blocks:
            fill(a, b)

    helpers = [_pool.submit(take) for _ in range(min(_PARTS, count) - 1)]
    try:
        take()
    finally:
        for helper in helpers:
            if not helper.cancel():
                helper.result()


class _Depthwise:
    """The input side of a depthwise conv: it keeps only the input its
    next output needs.

    ``rows`` holds the zero-padded input from the first tap of the next
    output row on; before the first push it is the left padding, a zero
    view with no memory of its own. ``start`` is where that tap lies in
    the held rows followed by the next push; it is nonzero only when the
    stride outruns the kernel. A push returns the taps of every output
    row whose taps have all arrived. The last push first pads on the
    right exactly as a whole-clip pass does, so one last push of the
    whole input is that pass.
    """

    def __init__(self, kernel: np.ndarray, stride: int, dilation: int):
        self.kernel = kernel
        self.stride = stride
        self.dilation = dilation
        self.span = dilation * (kernel.shape[0] - 1) + 1
        self.pad_left = (self.span - 1) // 2
        self.rows = _zero_rows(self.pad_left, kernel.shape[1])
        self.start = 0
        self.seen = 0

    def push(self, x: np.ndarray, last: bool) -> np.ndarray:
        """A (rows, channels, kernel) view of the taps of each new output row."""
        self.seen += x.shape[0]
        parts = [self.rows, x]
        if last:
            t_out = -(-self.seen // self.stride)
            pad_right = (t_out - 1) * self.stride + self.span - self.pad_left - self.seen
            parts.append(_zero_rows(max(0, pad_right), x.shape[1]))
        rows = np.concatenate(parts, dtype=np.float32)
        n = max(0, (rows.shape[0] - self.start - self.span) // self.stride + 1)
        if n == 0:  # less than one window, which sliding_window_view refuses
            taps = np.zeros((0, rows.shape[1], self.kernel.shape[0]), dtype=np.float32)
        else:
            windows = np.lib.stride_tricks.sliding_window_view(rows[self.start:], self.span,
                                                               axis=0)
            taps = windows[::self.stride][:n][:, :, ::self.dilation]
        if not last:
            # Keep a copy: a view would keep the whole pushed chunk alive.
            nxt = self.start + n * self.stride
            keep = min(nxt, rows.shape[0])
            self.rows = rows[keep:].copy()
            self.start = nxt - keep
        return taps


def _zero_rows(n: int, channels: int) -> np.ndarray:
    """n rows of float32 zeros as a read-only view of a single zero."""
    return np.broadcast_to(np.float32(0), (n, channels))


class _Conv:
    """One conv unit with its tensors and its affine resolved once.

    The affine is the batch-norm scale and shift, or the bias of a
    folded unit; folding stays a weight conversion, not a copy made here.
    """

    def __init__(self, u: _Unit, weights: NetworkWeights, relu: bool):
        self.dw = _Depthwise(weights[f"{u.name}.dw"], u.stride, u.dilation) \
            if u.separable else None
        self.pw = weights[f"{u.name}.pw"]
        self.relu = relu
        if f"{u.name}.bn.gamma" in weights:
            self.scale, self.shift = _bn_affine(weights, u.name)
        else:
            self.scale, self.shift = None, weights[f"{u.name}.bias"]

    def push(self, x: np.ndarray, last: bool, skip=None) -> np.ndarray:
        """The new output rows, computed in row blocks; ``skip(a, b)``, if
        given, returns rows a..b to add before the ReLU."""
        src = x if self.dw is None else self.dw.push(x, last)
        out = np.empty((src.shape[0], self.pw.shape[1]), dtype=np.float32)
        _in_row_blocks(out.shape[0], lambda a, b: self.rows(
            src[a:b], out[a:b], None if skip is None else skip(a, b)))
        return out

    def rows(self, src: np.ndarray, out: np.ndarray | None = None,
             skip: np.ndarray | None = None) -> np.ndarray:
        """Output rows of ``src`` (depthwise taps, or input rows of a
        pointwise conv), written into ``out`` when given."""
        x = src if self.dw is None else np.einsum("tck,kc->tc", src, self.dw.kernel)
        # In place on the matmul output: the same arithmetic as
        # x @ pw * scale + shift with no large temporary.
        out = np.matmul(x, self.pw, out=out)
        if self.scale is not None:
            out *= self.scale
        out += self.shift
        if skip is not None:
            out += skip
        return np.maximum(out, 0.0, out=out) if self.relu else out


class _Block:
    """A residual block; its skip path waits for the main path's rows.

    ``inputs`` holds (as a copy) the block inputs whose main-path output
    has not been emitted yet, None before the first push; sub-convs have
    stride 1, so each emitted row takes the oldest waiting input row.
    The last sub-conv adds the skip rows to each of its row blocks
    before its ReLU, which ends the block.
    """

    def __init__(self, subs: list[_Unit], res: _Unit | None, weights: NetworkWeights):
        self.subs = [_Conv(u, weights, relu=True) for u in subs]
        self.res = None if res is None else _Conv(res, weights, relu=False)
        self.inputs = None

    def push(self, x: np.ndarray, last: bool) -> np.ndarray:
        waiting = x if self.inputs is None else np.concatenate([self.inputs, x])
        for sub in self.subs[:-1]:
            x = sub.push(x, last)
        if self.res is None:
            return self.subs[-1].push(x, last)
        y = self.subs[-1].push(x, last, lambda a, b: self.res.rows(waiting[a:b]))
        if not last:
            self.inputs = waiting[y.shape[0]:].copy()
        return y


class _Head:
    def __init__(self, u: _Unit, weights: NetworkWeights):
        self.wt = np.ascontiguousarray(weights[f"{u.name}.pw"].T)
        self.bias = weights[f"{u.name}.bias"]

    def push(self, x: np.ndarray, last: bool) -> np.ndarray:
        # Per-column matrix-vector products: each output column comes from
        # its own reduction, so adding or dropping other columns (alphabet
        # surgery) can never perturb it.
        out = np.empty((x.shape[0], self.wt.shape[0]), dtype=np.float32)
        for j in range(self.wt.shape[0]):
            out[:, j] = x @ self.wt[j]
        out += self.bias
        return out


class _Stream:
    """The network as a chain of stages that each keep their own context.

    Push feature rows in order, the last push with ``last=True``; each
    push returns the pre-softmax rows that became final.
    """

    def __init__(self, cfg: NetConfig, weights: NetworkWeights):
        front, blocks, tail = _plan(cfg)
        self.stages = (
            [_Conv(u, weights, relu=True) for u in front]
            + [_Block(subs, res, weights) for _, subs, res in blocks]
            + [_Conv(u, weights, relu=True) for u in tail[:-1]]
            + [_Head(tail[-1], weights)]
        )

    def push(self, x: np.ndarray, last: bool) -> np.ndarray:
        for stage in self.stages:
            x = stage.push(x, last)
        return x


def log_softmax(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=1, keepdims=True)
    shifted = x - m
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward(cfg: NetConfig, weights: NetworkWeights, features: np.ndarray,
            log_probs: bool = True) -> np.ndarray:
    """Run the network on a (T, input_features) matrix.

    Returns ceil(T / prologue stride) rows (none for T = 0) of width
    vocab_size+1, as log-softmax scores (or raw pre-softmax activations
    with log_probs=False, which alphabet-adaptation comparisons rely on).
    This is one push of every frame that also ends the stream. Each
    stage's rows may be split across threads (see ``row_parts``); the
    result is bitwise the same whatever the part count.
    """
    x = _Stream(cfg, weights).push(_input_rows(cfg, features), last=True)
    return log_softmax(x) if log_probs else x


def _input_rows(cfg: NetConfig, features) -> np.ndarray:
    """``features`` as float32, refused unless (T, input_features)."""
    x = np.asarray(features, dtype=np.float32)
    if x.ndim != 2 or x.shape[1] != cfg.input_features:
        raise ValueError(
            f"features shape {x.shape} does not match input_features={cfg.input_features}"
        )
    return x


# ---------------------------------------------------------------------------
# Batch-norm folding


def fold_batchnorm(cfg: NetConfig, weights: NetworkWeights) -> NetworkWeights:
    """Fold every BN into its preceding pointwise kernel plus a bias.

    With scale = gamma / sqrt(var + eps): pw column c is multiplied by
    scale[c] and the unit gains bias beta - mean * scale. Output of
    forward stays within 1e-5 max-abs of the unfolded net. Folding an
    already folded set is an error.
    """
    if weights.folded:
        raise WeightError("weights carry no batch norm (already folded?)")
    tensors = dict(weights.tensors)
    for u in _all_units(cfg):
        if f"{u.name}.bn.gamma" not in tensors:
            continue
        if not np.all(tensors[f"{u.name}.bn.var"] > 0):
            raise WeightError(f"{u.name}.bn.var must be strictly positive")
        scale, shift = _bn_affine(tensors, u.name)
        tensors[f"{u.name}.pw"] = (tensors[f"{u.name}.pw"] * scale).astype(np.float32)
        tensors[f"{u.name}.bias"] = shift.astype(np.float32)
        for part in _BN_PARTS:
            del tensors[f"{u.name}.bn.{part}"]
    return NetworkWeights(tensors)


# ---------------------------------------------------------------------------
# Receptive field and streaming


def receptive_field_frames(cfg: NetConfig) -> tuple[int, int]:
    """(frames one output row sees to the left, to the right) in input
    feature frames, computed symbolically from kernel/stride/dilation."""
    left = right = 0
    jump = 1
    for u in _all_units(cfg):
        ke = u.dilation * (u.kernel - 1) + 1
        pad_left = (ke - 1) // 2
        left += pad_left * jump
        right += (ke - 1 - pad_left) * jump
        jump *= u.stride
    return left, right


def receptive_field_seconds(cfg: NetConfig, feat_cfg: FeatureConfig) -> float:
    """Audio a single output row depends on, window edges included."""
    left, right = receptive_field_frames(cfg)
    return ((left + right) * feat_cfg.hop_samples + feat_cfg.window_samples) / SAMPLE_RATE


def forward_streaming(cfg: NetConfig, weights: NetworkWeights, clip: AudioClip,
                      chunk_seconds: float, feat_cfg: FeatureConfig) -> np.ndarray:
    """Chunked forward pass: the feature rows are pushed one chunk at a time.

    Features are extracted and normalized once for the whole clip. Each
    conv keeps only the input rows its next outputs need, so the network
    does the offline arithmetic for any chunk of at least one feature
    hop, and the result matches the unchunked forward within 1e-4
    max-abs (bitwise when one chunk covers the clip). A row is final
    once the right half of the receptive field has been pushed after it.
    Each push is ``round(chunk_seconds * SAMPLE_RATE) // hop_samples`` rows.
    As in ``forward``, the result is bitwise the same whatever the part
    count.
    """
    step = 0
    if math.isfinite(chunk_seconds) and chunk_seconds > 0:
        # a finite chunk too long to count in float samples is one push
        samples = min(chunk_seconds * SAMPLE_RATE, sys.float_info.max)
        step = round(samples) // feat_cfg.hop_samples
    if step < 1:
        raise ValueError(
            f"chunk must be a finite length of at least one feature hop "
            f"({feat_cfg.hop_length}s), got {chunk_seconds!r}"
        )

    feats = _input_rows(cfg, normalize_features(logmel(clip, feat_cfg)))
    t = feats.shape[0]
    # a clip with no frame still makes the one push that ends the stream
    bounds = [0, *range(step, t, step), t]
    stream = _Stream(cfg, weights)
    return log_softmax(np.concatenate([
        stream.push(feats[a:b], last=b == t) for a, b in zip(bounds, bounds[1:])
    ]))


# ---------------------------------------------------------------------------
# Alphabet adaptation

#: The largest uniform-init scale: its draws must fit float32 weights
MAX_INIT_SCALE = float(np.finfo(np.float32).max)


def adapt_alphabet(cfg: NetConfig, weights: NetworkWeights, src: AlphabetSpec,
                   tgt: AlphabetSpec, init: str = "zero", scale: float = 0.01,
                   seed: int = 0) -> tuple[NetConfig, NetworkWeights]:
    """Rebuild the output head for a different alphabet.

    A target symbol that ``src`` also has takes its source column of the
    head kernel and bias verbatim; a new one gets a zero column, or with
    init="uniform" one drawn from [-scale, scale) with the given seed.
    Columns of dropped source symbols disappear. The blank stays last
    and keeps its weights. No other tensor is touched, so shared symbols
    produce bit-identical pre-softmax activations.
    """
    if init not in ("zero", "uniform"):
        raise ValueError("init must be 'zero' or 'uniform'")
    if not 0.0 <= scale <= MAX_INIT_SCALE:
        raise ValueError(f"scale must be a finite number from 0 to {MAX_INIT_SCALE:g}, "
                         f"got {scale!r}")
    if cfg.vocab_size != src.size:
        raise ValueError("cfg.vocab_size does not match the source alphabet")

    head_name = _all_units(cfg)[-1].name
    old_w = weights[f"{head_name}.pw"]
    old_b = weights[f"{head_name}.bias"]
    c_in = old_w.shape[0]
    rng = np.random.default_rng(seed)

    new_w = np.zeros((c_in, tgt.size + 1), dtype=np.float32)
    new_b = np.zeros(tgt.size + 1, dtype=np.float32)
    for i, sym in enumerate(tgt.symbols):
        if sym in src.symbols:
            j = src.index(sym)
            new_w[:, i] = old_w[:, j]
            new_b[i] = old_b[j]
        elif init == "uniform":
            new_w[:, i] = rng.uniform(-scale, scale, c_in).astype(np.float32)
            new_b[i] = rng.uniform(-scale, scale)
    new_w[:, tgt.size] = old_w[:, src.size]
    new_b[tgt.size] = old_b[src.size]

    tensors = dict(weights.tensors)
    tensors[f"{head_name}.pw"] = new_w
    tensors[f"{head_name}.bias"] = new_b
    return replace(cfg, vocab_size=tgt.size), NetworkWeights(tensors)


# ---------------------------------------------------------------------------
# Tensor blob interchange (weights and saved logit matrices)

BLOB_NAME = "weights.bin"
MANIFEST_NAME = "manifest.json"
# read size of the blob: one chunk is hashed while the next is read
_BLOB_CHUNK = 4 << 20


def write_tensor_blob(directory, tensors: dict[str, np.ndarray],
                      extra: dict | None = None) -> Path:
    """Write manifest.json + weights.bin; returns the manifest path.

    The blob is little-endian float32, row-major, tensors packed at the
    offsets recorded (in bytes) in the manifest's tensor table, with a
    sha256 checksum over the whole blob. Each tensor is hashed and
    written as it is, so no copy of the blob is made; the manifest is
    written last.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    table = []
    offset = 0
    digest = hashlib.sha256()
    with open(directory / BLOB_NAME, "wb") as fh:
        for name in sorted(tensors):
            data = np.ascontiguousarray(tensors[name], dtype="<f4")
            table.append({"name": name, "shape": list(data.shape), "dtype": "f32",
                          "offset": offset, "length": data.nbytes})
            digest.update(data)
            fh.write(data)
            offset += data.nbytes
    manifest = dict(extra or {})
    manifest["tensors"] = table
    manifest["checksum"] = "sha256:" + digest.hexdigest()
    manifest_path = directory / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest_path


def _read_hashed(path: Path) -> tuple[np.ndarray, str]:
    """The bytes of ``path`` as a read-only uint8 array, and their sha256
    hex digest. One thread hashes each chunk, in order, while the next is
    read; it is joined before this returns or raises."""
    digest = hashlib.sha256()
    with (opened(path, WeightError) as fh,
          ThreadPoolExecutor(1, thread_name_prefix="scribo-sha256") as hasher):
        blob = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        view = memoryview(blob)
        hashed = []
        filled = 0
        while filled < len(blob):
            got = fh.readinto(view[filled:filled + _BLOB_CHUNK])
            if not got:  # the file shrank since fstat
                break
            hashed.append(hasher.submit(digest.update, view[filled:filled + got]))
            filled += got
    for update in hashed:
        update.result()
    blob.flags.writeable = False
    return blob[:filled], digest.hexdigest()


def _manifest_path(path) -> Path:
    """The manifest of a model given as its directory or its manifest."""
    path = Path(path)
    return path if path.name == MANIFEST_NAME else path / MANIFEST_NAME


def read_tensor_blob(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a manifest.json + weights.bin directory (or manifest path).

    The blob is read and checksummed in one pass; the tensors are
    read-only views into it, built only once the checksum matches.
    """
    manifest_path = _manifest_path(path)
    manifest = read_json(manifest_path, WeightError)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("tensors", []), list):
        raise WeightError(f"{manifest_path}: manifest must be an object with a tensor list")
    blob_path = manifest_path.with_name(BLOB_NAME)
    checksum = manifest.get("checksum")
    if not isinstance(checksum, str) or not checksum.startswith("sha256:"):
        raise WeightError(f"{manifest_path}: missing or malformed checksum")
    blob, digest = _read_hashed(blob_path)
    if "sha256:" + digest != checksum:
        raise WeightError(f"{blob_path}: checksum mismatch (corrupt or truncated blob)")

    tensors: dict[str, np.ndarray] = {}
    for i, entry in enumerate(manifest.get("tensors", [])):
        try:
            name, shape = entry["name"], entry["shape"]
            offset, length = entry["offset"], entry["length"]
        except (KeyError, TypeError) as exc:
            raise WeightError(f"{manifest_path}: malformed tensor entry {i}: {exc!r}") from exc
        if not isinstance(name, str):
            raise WeightError(f"{manifest_path}: malformed tensor entry {i}: "
                              "name must be a string")
        where = f"{manifest_path}: tensor {name!r}"
        # json reads true and false as bool, an int subclass
        if not (isinstance(shape, list)
                and all(type(v) is int for v in (*shape, offset, length))):
            raise WeightError(f"{where}: shape, offset and length must be JSON integers")
        if name in tensors:
            raise WeightError(f"{where}: listed twice")
        if entry.get("dtype") != "f32":
            raise WeightError(f"{where}: unsupported dtype {entry.get('dtype')!r}")
        count = math.prod(shape)  # exact: an int64 product could wrap
        if (min(shape, default=0) < 0 or offset < 0 or length != 4 * count
                or offset + length > len(blob)):
            raise WeightError(f"{where}: offset/length outside blob")
        if offset % 4:
            raise WeightError(f"{where}: offset {offset} is not a multiple of 4")
        try:
            tensors[name] = blob[offset:offset + length].view("<f4").reshape(shape)
        except ValueError as exc:  # more dimensions than numpy supports
            raise WeightError(f"{where}: {exc}") from exc
    return tensors, manifest


@dataclass(frozen=True)
class LoadedModel:
    name: str
    net: NetConfig
    weights: NetworkWeights
    features: FeatureConfig
    alphabet: AlphabetSpec


def save_weights(directory, cfg: NetConfig, weights: NetworkWeights,
                 feat_cfg: FeatureConfig, alphabet: AlphabetSpec,
                 name: str = "model") -> Path:
    """Persist a model directory (manifest.json + weights.bin)."""
    validate_weights(cfg, weights)
    if alphabet.size != cfg.vocab_size:
        raise ValueError("alphabet size does not match cfg.vocab_size")
    if feat_cfg.mel_bins != cfg.input_features:
        raise ValueError("feat_cfg.mel_bins does not match cfg.input_features")
    extra = {
        "model": name,
        "net": asdict(cfg),
        "features": asdict(feat_cfg),
        "alphabet": asdict(alphabet),
    }
    return write_tensor_blob(directory, weights.tensors, extra)


def load_weights(path) -> LoadedModel:
    """Load and validate a model directory saved by save_weights.

    Each section holds its dataclass's keyword arguments: an unknown key,
    a value of the wrong type or a missing field without a default raises
    WeightError; a missing field with a default takes it. Every
    WeightError names the manifest.
    """
    tensors, manifest = read_tensor_blob(path)
    manifest_path = _manifest_path(path)
    try:
        for key in ("net", "features", "alphabet"):
            if key not in manifest:
                raise WeightError(f"model manifest lacks the {key!r} section")
        cfg = NetConfig.from_dict(manifest["net"])
        feat_cfg = FeatureConfig(**manifest["features"])
        alphabet = AlphabetSpec.from_object(manifest["alphabet"])
        weights = NetworkWeights(tensors)
        validate_weights(cfg, weights)
        if alphabet.size != cfg.vocab_size:
            raise WeightError("manifest alphabet size disagrees with net vocab_size")
        if feat_cfg.mel_bins != cfg.input_features:
            raise WeightError("manifest features mel_bins disagrees with net input_features")
    except WeightError as exc:
        raise WeightError(f"{manifest_path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise WeightError(f"{manifest_path}: malformed model manifest section: {exc!r}") from exc
    return LoadedModel(manifest.get("model", "model"), cfg, weights, feat_cfg, alphabet)

