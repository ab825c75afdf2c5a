"""Minimal tensor math for the training engine.

Convolution (as cross-correlation), fully-connected products, ReLU,
max-pooling and softmax cross-entropy, each with forward, data-backward
and weight-gradient variants.  Everything is a pure function on numpy
arrays; convolution loops run in the documented (n, kr, kc) order with
the spatial work vectorized, so results are reproducible run to run.

Layouts: feature maps are [channels, rows, cols] with an optional leading
batch axis; conv weights are [M_out, N_in, K, K]; FC weights [out, in].
"""

from __future__ import annotations

import numpy as np


class ShapeMismatch(ValueError):
    pass


def _out_extent(size: int, k: int, stride: int, pad: int) -> int:
    out, rem = divmod(size + 2 * pad - k, stride)
    if rem:
        raise ShapeMismatch(
            f"extent {size} with k={k} stride={stride} pad={pad} is not integral"
        )
    return out + 1


def _pad2d(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    width = [(0, 0)] * (x.ndim - 2) + [(pad, pad), (pad, pad)]
    return np.pad(x, width)


def conv_forward(x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlate [(B,)N,H,W] with [M,N,K,K] -> [(B,)M,R,C]."""
    M, N, K, K2 = w.shape
    if K != K2:
        raise ShapeMismatch("non-square kernels unsupported")
    if x.shape[-3] != N:
        raise ShapeMismatch(f"input channels {x.shape[-3]} != weight channels {N}")
    R = _out_extent(x.shape[-2], K, stride, pad)
    C = _out_extent(x.shape[-1], K, stride, pad)
    xp = _pad2d(x, pad)
    out = np.zeros(x.shape[:-3] + (M, R, C), dtype=x.dtype)
    for n in range(N):
        for kr in range(K):
            for kc in range(K):
                patch = xp[..., n, kr : kr + R * stride : stride, kc : kc + C * stride : stride]
                # accumulate all output channels for this (n, kr, kc) slot
                out += w[:, n, kr, kc].reshape((M, 1, 1)) * patch[..., None, :, :]
    return out


def conv_backward_data(e: np.ndarray, w: np.ndarray, in_hw: tuple[int, int],
                       stride: int = 1, pad: int = 0) -> np.ndarray:
    """Propagate output errors [(B,)M,R,C] back to input errors [(B,)N,H,W].

    Mathematically the adjoint of conv_forward; equals full correlation
    with 180-degree rotated kernels for stride 1.
    """
    M, N, K, _ = w.shape
    if e.shape[-3] != M:
        raise ShapeMismatch(f"error channels {e.shape[-3]} != weight out-channels {M}")
    H, W = in_hw
    R = _out_extent(H, K, stride, pad)
    C = _out_extent(W, K, stride, pad)
    if e.shape[-2:] != (R, C):
        raise ShapeMismatch(f"error extents {e.shape[-2:]} != expected {(R, C)}")
    dxp = np.zeros(e.shape[:-3] + (N, H + 2 * pad, W + 2 * pad), dtype=e.dtype)
    for n in range(N):
        for kr in range(K):
            for kc in range(K):
                contrib = np.einsum("...mrc,m->...rc", e, w[:, n, kr, kc])
                dxp[..., n, kr : kr + R * stride : stride, kc : kc + C * stride : stride] += contrib
    if pad:
        dxp = dxp[..., pad:-pad, pad:-pad]
    return dxp


def conv_backward_weights(x: np.ndarray, e: np.ndarray, K: int,
                          stride: int = 1, pad: int = 0) -> np.ndarray:
    """Likelihood weight gradient: correlate inputs with output errors."""
    N = x.shape[-3]
    M = e.shape[-3]
    R, C = e.shape[-2:]
    xp = _pad2d(x, pad)
    dw = np.zeros((M, N, K, K), dtype=x.dtype)
    for n in range(N):
        for kr in range(K):
            for kc in range(K):
                patch = xp[..., n, kr : kr + R * stride : stride, kc : kc + C * stride : stride]
                eb = e.reshape((-1,) + e.shape[-3:])
                pb = patch.reshape((-1,) + patch.shape[-2:])
                dw[:, n, kr, kc] = np.einsum("bmrc,brc->m", eb, pb)
    return dw


def fc_forward(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """[(B,)in] @ [out,in]^T -> [(B,)out]."""
    if x.shape[-1] != w.shape[1]:
        raise ShapeMismatch(f"input size {x.shape[-1]} != weight in-size {w.shape[1]}")
    return x @ w.T


def fc_backward_data(e: np.ndarray, w: np.ndarray) -> np.ndarray:
    if e.shape[-1] != w.shape[0]:
        raise ShapeMismatch(f"error size {e.shape[-1]} != weight out-size {w.shape[0]}")
    return e @ w


def fc_backward_weights(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    if x.ndim == 1:
        return np.outer(e, x)
    return e.T @ x


def relu_fwd(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_bwd(e: np.ndarray, x: np.ndarray) -> np.ndarray:
    return e * (x > 0)


def maxpool_fwd(x: np.ndarray, k: int = 2, stride: int | None = None):
    """Max pool [(B,)N,H,W]; returns (output, argmax index array for bwd)."""
    stride = stride or k
    H, W = x.shape[-2:]
    R = _out_extent(H, k, stride, 0)
    C = _out_extent(W, k, stride, 0)
    windows = np.empty(x.shape[:-2] + (R, C, k * k), dtype=x.dtype)
    for kr in range(k):
        for kc in range(k):
            windows[..., kr * k + kc] = x[..., kr : kr + R * stride : stride,
                                          kc : kc + C * stride : stride]
    arg = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    return out, arg


def maxpool_bwd(e: np.ndarray, arg: np.ndarray, in_hw: tuple[int, int],
                k: int = 2, stride: int | None = None) -> np.ndarray:
    stride = stride or k
    H, W = in_hw
    R, C = e.shape[-2:]
    dx = np.zeros(e.shape[:-2] + (H, W), dtype=e.dtype)
    for kr in range(k):
        for kc in range(k):
            mask = arg == kr * k + kc
            dx[..., kr : kr + R * stride : stride, kc : kc + C * stride : stride] += e * mask
    return dx


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy loss and dLoss/dLogits for integer class labels.

    logits: [(B,)num_classes]; labels: int array [(B,)].  The gradient is
    softmax - onehot, divided by the batch size (matching the mean loss).
    """
    z = logits - logits.max(axis=-1, keepdims=True)
    # log-softmax form: finite logits can never produce an infinite loss
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    p = np.exp(logp)
    if logits.ndim == 1:
        loss = -logp[labels]
        grad = p.copy()
        grad[labels] -= 1.0
        return float(loss), grad
    b = logits.shape[0]
    idx = np.arange(b)
    loss = float(-logp[idx, labels].mean())
    grad = p.copy()
    grad[idx, labels] -= 1.0
    return loss, grad / b
