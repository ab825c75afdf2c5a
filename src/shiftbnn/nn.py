"""Minimal tensor math for the training engine.

Convolution (as cross-correlation), fully-connected products, ReLU,
max-pooling and softmax cross-entropy, each with forward, data-backward
and weight-gradient variants.  Everything is a pure function on numpy
arrays.  Convolutions are matrix products: the forward pass and the
weight gradient build one image's (N*K*K, R*C) column matrix at a time
(rows in (n, kr, kc) order, from a ``sliding_window_view``) and make
one matmul per image; the data backward makes one batched matmul per
(kr, kc) kernel slot and adds it into the strided input positions.  No
temporary is larger than one image's column matrix, and the fixed
order of operations keeps results reproducible run to run.

Layouts: feature maps are [channels, rows, cols] with an optional leading
batch axis; conv weights are [M_out, N_in, K, K]; FC weights [out, in].
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeMismatch(ValueError):
    pass


def out_extent(size: int, k: int, stride: int, pad: int) -> int:
    out, rem = divmod(size + 2 * pad - k, stride)
    if rem:
        raise ShapeMismatch(
            f"extent {size} with k={k} stride={stride} pad={pad} is not integral"
        )
    return out + 1


def _image_columns(x: np.ndarray, K: int, stride: int, pad: int, R: int, C: int):
    """Yield each image's (N*K*K, R*C) column matrix, rows in (n, kr, kc) order.

    Every image is copied into one reused buffer (and, with padding, one
    reused padded image), so a consumer must be done with a matrix before
    it asks for the next one.
    """
    N, H, W = x.shape[-3:]
    images = x.reshape((-1, N, H, W))
    src = images
    if pad:
        src = np.zeros((1, N, H + 2 * pad, W + 2 * pad), dtype=x.dtype)
    # every strided window of src as a view, ordered (image, n, kr, kc, r, c)
    windows = sliding_window_view(src, (K, K), axis=(2, 3))
    windows = windows[:, :, : (R - 1) * stride + 1 : stride,
                      : (C - 1) * stride + 1 : stride].transpose(0, 1, 4, 5, 2, 3)
    cols = np.empty((N, K, K, R, C), dtype=x.dtype)
    flat = cols.reshape(N * K * K, R * C)
    for b in range(len(images)):
        if pad:
            src[0, :, pad:-pad, pad:-pad] = images[b]
        np.copyto(cols, windows[0 if pad else b])
        yield flat


def conv_forward(x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlate [(B,)N,H,W] with [M,N,K,K] -> [(B,)M,R,C]."""
    M, N, K, K2 = w.shape
    if K != K2:
        raise ShapeMismatch("non-square kernels unsupported")
    if x.shape[-3] != N:
        raise ShapeMismatch(f"input channels {x.shape[-3]} != weight channels {N}")
    R = out_extent(x.shape[-2], K, stride, pad)
    C = out_extent(x.shape[-1], K, stride, pad)
    out = np.empty(x.shape[:-3] + (M, R, C), dtype=x.dtype)
    rows = out.reshape((-1, M, R * C))
    w2 = w.reshape(M, N * K * K).astype(x.dtype, copy=False)
    for b, cols in enumerate(_image_columns(x, K, stride, pad, R, C)):
        np.matmul(w2, cols, out=rows[b])
    return out


def conv_backward_data(e: np.ndarray, w: np.ndarray, stride: int = 1,
                       pad: int = 0) -> np.ndarray:
    """Propagate output errors [(B,)M,R,C] back to input errors [(B,)N,H,W].

    Mathematically the adjoint of conv_forward; equals full correlation
    with 180-degree rotated kernels for stride 1.  conv_forward takes only
    extents that divide exactly, so H = (R - 1) * stride + K - 2 * pad, and
    W likewise.  Each kernel slot (kr, kc) is one batched [N,M] @ [B,M,R*C]
    product added into the strided input positions that slot touched.
    """
    M, N, K, _ = w.shape
    if e.shape[-3] != M:
        raise ShapeMismatch(f"error channels {e.shape[-3]} != weight out-channels {M}")
    R, C = e.shape[-2:]
    H, W = ((n - 1) * stride + K - 2 * pad for n in (R, C))
    errs = e.reshape((-1, M, R * C))
    B = len(errs)
    # [K, K, N, M]: slot (kr, kc) maps output errors to input channels
    w_slots = np.ascontiguousarray(w.transpose(2, 3, 1, 0), dtype=e.dtype)
    part = np.empty((B, N, R * C), dtype=e.dtype)
    dxp = np.zeros((B, N, H + 2 * pad, W + 2 * pad), dtype=e.dtype)
    for kr in range(K):
        for kc in range(K):
            np.matmul(w_slots[kr, kc], errs, out=part)
            dxp[..., kr : kr + R * stride : stride,
                kc : kc + C * stride : stride] += part.reshape(B, N, R, C)
    return dxp[..., pad:pad + H, pad:pad + W].reshape(e.shape[:-3] + (N, H, W))


def conv_backward_weights(x: np.ndarray, e: np.ndarray, K: int,
                          stride: int = 1, pad: int = 0) -> np.ndarray:
    """Likelihood weight gradient: correlate inputs with output errors."""
    N = x.shape[-3]
    M = e.shape[-3]
    R, C = e.shape[-2:]
    errs = e.reshape((-1, M, R * C))
    dw = np.zeros((M, N * K * K), dtype=x.dtype)
    part = np.empty_like(dw)
    for b, cols in enumerate(_image_columns(x, K, stride, pad, R, C)):
        np.matmul(errs[b], cols.T, out=part)
        dw += part
    return dw.reshape(M, N, K, K)


def fc_forward(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """[(B,)in] @ [out,in]^T -> [(B,)out], C-contiguous.

    Taken as (w @ x^T)^T, with w as gemm's untransposed left operand: its
    bits equal x @ w.T's at every built-in layer shape for batches 1 to
    512.  On a 2-vCPU Xeon VM (OpenBLAS 0.3.31, one thread) it ran the
    784->400 product at batch 8 in 102 us against 207 us, but it is slower
    on small layers (400->120: 11.7 against 8.4 us) and at batch 512 (fc1:
    2.39 against 2.07 ms).
    """
    if x.shape[-1] != w.shape[1]:
        raise ShapeMismatch(f"input size {x.shape[-1]} != weight in-size {w.shape[1]}")
    rows = x.reshape(-1, x.shape[-1])
    return np.ascontiguousarray((w @ rows.T).T).reshape(x.shape[:-1] + w.shape[:1])


def fc_backward_data(e: np.ndarray, w: np.ndarray) -> np.ndarray:
    if e.shape[-1] != w.shape[0]:
        raise ShapeMismatch(f"error size {e.shape[-1]} != weight out-size {w.shape[0]}")
    return e @ w


def fc_backward_weights(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """[B,out]^T @ [B,in] -> [out,in]."""
    return e.T @ x


def relu_fwd(x: np.ndarray):
    """ReLU; returns (output, the bool mask x > 0 for bwd)."""
    return np.maximum(x, 0), x > 0


def relu_bwd(e: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return e * mask


def _pool_slots(a: np.ndarray, k: int) -> list[np.ndarray]:
    """The k*k strided views a[..., kr::k, kc::k] of a [..., R*k, C*k] array,
    in (kr, kc) order; each is [..., R, C] and together they tile ``a``."""
    R, C = (out_extent(n, k, k, 0) for n in a.shape[-2:])
    tiles = a.reshape(a.shape[:-2] + (R, k, C, k))
    return [tiles[..., kr, :, kc] for kr in range(k) for kc in range(k)]


def maxpool_fwd(x: np.ndarray, k: int = 2):
    """k x k max pool with stride k over [(B,)N,H,W]; returns (output, slot).

    ``slot`` holds, per output element, the index kr*k + kc of the window
    element it came from, in the smallest unsigned dtype that fits k*k - 1
    (one byte up to k = 16).  The windows are scanned slot by slot with
    ``np.argmax``'s rule: a later slot wins unless it is <= the best so
    far, and nothing wins after a NaN.  So ties and NaN go to the first
    such slot, and the output holds that element's bits (sign of zero and
    NaN payload included).  The winners are merged on the bit patterns
    with masks, not with a branch per element.
    """
    slots = _pool_slots(x, k)
    out = slots[0].copy()
    slot = np.zeros(out.shape, np.min_scalar_type(k * k - 1))
    bits = np.dtype(f"u{x.itemsize}")
    out_bits = out.view(bits)
    keep = np.empty(out.shape, bool)
    nan = np.empty(out.shape, bool)
    take = np.empty(out.shape, bits)  # all ones where slot j wins, else 0
    diff = np.empty(out.shape, bits)
    won = np.empty_like(slot)
    for j, s in enumerate(slots[1:], 1):
        # the best so far stays if s <= it, or if it is NaN
        np.less_equal(s, out, out=keep)
        np.not_equal(out, out, out=nan)
        np.logical_or(keep, nan, out=keep)
        np.subtract(keep, 1, out=take, dtype=bits)
        np.bitwise_xor(out_bits, s.view(bits), out=diff)
        diff &= take
        out_bits ^= diff
        # j grows, so the largest winning j is the last one
        np.bitwise_and(take, j, out=won, casting="unsafe")
        np.maximum(slot, won, out=slot)
    return out, slot


def maxpool_bwd(e: np.ndarray, slot: np.ndarray, k: int = 2) -> np.ndarray:
    """Route each output error to its window's ``slot`` of the k times larger
    input; every other input gets +0.0.  Each slot view of dx is written
    once with e * (slot == j) + 0.0, the bits of adding the masked error
    into zeros (a -0.0 error lands as +0.0)."""
    dx = np.empty(e.shape[:-2] + tuple(k * n for n in e.shape[-2:]), dtype=e.dtype)
    hit = np.empty(slot.shape, bool)
    routed = np.empty(e.shape, e.dtype)
    for j, view in enumerate(_pool_slots(dx, k)):
        np.equal(slot, j, out=hit)
        np.multiply(e, hit, out=routed)
        np.add(routed, 0.0, out=view)
    return dx


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy loss and dLoss/dLogits for integer class labels.

    logits: [B,num_classes]; labels: int array [B].  The gradient is
    softmax - onehot, divided by the batch size (matching the mean loss).
    """
    z = logits - logits.max(axis=-1, keepdims=True)
    # log-softmax form: finite logits can never produce an infinite loss
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    p = np.exp(logp)
    b = logits.shape[0]
    idx = np.arange(b)
    loss = float(-logp[idx, labels].mean())
    grad = p.copy()
    grad[idx, labels] -= 1.0
    return loss, grad / b
