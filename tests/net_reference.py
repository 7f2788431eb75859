"""Frozen reference for ``scribo.net.forward``.

This is the original whole-clip forward pass (one padded depthwise
einsum per conv over the full input, batch-norm scale recomputed on
every call), kept verbatim so the stream-based forward can be required
to return the very same float32 bits. Only the layer plan is shared
with the package, because it also names the weight tensors. Do not
optimize it: its only job is to be obviously right.
"""
from __future__ import annotations

import numpy as np

from scribo.errors import WeightError
from scribo.net import NetConfig, NetworkWeights, _plan, _Unit

BN_EPS = 1e-5


def _depthwise(x: np.ndarray, kernel: np.ndarray, stride: int, dilation: int) -> np.ndarray:
    k = kernel.shape[0]
    t = x.shape[0]
    ke = dilation * (k - 1) + 1
    t_out = -(-t // stride)
    pad_left = (ke - 1) // 2
    pad_right = max(0, (t_out - 1) * stride + ke - pad_left - t)
    padded = np.zeros((pad_left + t + pad_right, x.shape[1]), dtype=np.float32)
    padded[pad_left:pad_left + t] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, ke, axis=0)
    taps = windows[::stride][:t_out][:, :, ::dilation]
    return np.einsum("tck,kc->tc", taps, kernel)


def _affine(x: np.ndarray, unit: str, weights: NetworkWeights) -> np.ndarray:
    if f"{unit}.bn.gamma" in weights:
        gamma = weights[f"{unit}.bn.gamma"]
        beta = weights[f"{unit}.bn.beta"]
        mean = weights[f"{unit}.bn.mean"]
        var = weights[f"{unit}.bn.var"]
        scale = gamma / np.sqrt(var + BN_EPS)
        return x * scale + (beta - mean * scale)
    if f"{unit}.bias" in weights:
        return x + weights[f"{unit}.bias"]
    raise WeightError(f"unit {unit!r} has neither batch norm nor bias")


def _conv(x: np.ndarray, u: _Unit, weights: NetworkWeights) -> np.ndarray:
    if u.separable:
        x = _depthwise(x, weights[f"{u.name}.dw"], u.stride, u.dilation)
    elif u.stride != 1 or u.dilation != 1:
        raise WeightError(f"unit {u.name!r}: pointwise conv must have stride/dilation 1")
    return x @ weights[f"{u.name}.pw"]


def _head(x: np.ndarray, name: str, weights: NetworkWeights) -> np.ndarray:
    # Per-column matrix-vector products: each output column comes from
    # its own reduction, so adding or dropping other columns (alphabet
    # surgery) can never perturb it.
    w = weights[f"{name}.pw"]
    bias = weights[f"{name}.bias"]
    out = np.empty((x.shape[0], w.shape[1]), dtype=np.float32)
    wt = np.ascontiguousarray(w.T)
    for j in range(w.shape[1]):
        out[:, j] = x @ wt[j]
    return out + bias


def log_softmax(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=1, keepdims=True)
    shifted = x - m
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def reference_forward(cfg: NetConfig, weights: NetworkWeights, features: np.ndarray,
                      log_probs: bool = True) -> np.ndarray:
    """Run the network on a (T, input_features) matrix.

    Returns ceil(T / prologue stride) rows of width vocab_size+1, as
    log-softmax scores (or raw pre-softmax activations with
    log_probs=False, which alphabet-adaptation comparisons rely on).
    """
    x = np.asarray(features, dtype=np.float32)
    if x.ndim != 2 or x.shape[1] != cfg.input_features:
        raise ValueError(
            f"features shape {x.shape} does not match input_features={cfg.input_features}"
        )
    if x.shape[0] < 1:
        raise ValueError("need at least one feature frame")

    head, blocks, tail = _plan(cfg)
    for u in head:
        x = np.maximum(_affine(_conv(x, u, weights), u.name, weights), 0.0)

    for name, subs, res in blocks:
        inp = x
        for j, u in enumerate(subs):
            x = _affine(_conv(x, u, weights), u.name, weights)
            if j < len(subs) - 1:
                x = np.maximum(x, 0.0)
        if res is not None:
            x = x + _affine(inp @ weights[f"{res.name}.pw"], res.name, weights)
        x = np.maximum(x, 0.0)

    for u in tail[:-1]:
        x = np.maximum(_affine(_conv(x, u, weights), u.name, weights), 0.0)
    x = _head(x, tail[-1].name, weights)
    return log_softmax(x) if log_probs else x
