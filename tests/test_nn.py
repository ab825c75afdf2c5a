"""Tensor-math checks against brute-force loops and finite differences."""

import tracemalloc

import numpy as np
import pytest

from shiftbnn import nn


def naive_conv(x, w, stride=1, pad=0):
    """Reference cross-correlation, all-scalar loops."""
    M, N, K, _ = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    H, W = xp.shape[-2:]
    R = (H - K) // stride + 1
    C = (W - K) // stride + 1
    out = np.zeros((M, R, C))
    for m in range(M):
        for r in range(R):
            for c in range(C):
                acc = 0.0
                for n in range(N):
                    for kr in range(K):
                        for kc in range(K):
                            acc += w[m, n, kr, kc] * xp[n, r * stride + kr, c * stride + kc]
                out[m, r, c] = acc
    return out


def loop_conv_backward_data(e, w, in_hw, stride=1, pad=0):
    """Reference input errors: one einsum per (n, kr, kc) kernel slot."""
    M, N, K, _ = w.shape
    H, W = in_hw
    R, C = e.shape[-2:]
    dxp = np.zeros(e.shape[:-3] + (N, H + 2 * pad, W + 2 * pad), dtype=e.dtype)
    for n in range(N):
        for kr in range(K):
            for kc in range(K):
                contrib = np.einsum("...mrc,m->...rc", e, w[:, n, kr, kc])
                dxp[..., n, kr : kr + R * stride : stride, kc : kc + C * stride : stride] += contrib
    if pad:
        dxp = dxp[..., pad:-pad, pad:-pad]
    return dxp


def loop_conv_backward_weights(x, e, K, stride=1, pad=0):
    """Reference weight gradient: one einsum per (n, kr, kc) kernel slot."""
    N = x.shape[-3]
    M = e.shape[-3]
    R, C = e.shape[-2:]
    width = [(0, 0)] * (x.ndim - 2) + [(pad, pad), (pad, pad)]
    xp = np.pad(x, width)
    eb = e.reshape((-1,) + e.shape[-3:])
    dw = np.zeros((M, N, K, K), dtype=x.dtype)
    for n in range(N):
        for kr in range(K):
            for kc in range(K):
                patch = xp[..., n, kr : kr + R * stride : stride, kc : kc + C * stride : stride]
                pb = patch.reshape((-1,) + patch.shape[-2:])
                dw[:, n, kr, kc] = np.einsum("bmrc,brc->m", eb, pb)
    return dw


def assert_close(got, ref, dtype, rtol):
    """Same dtype, and equal up to rtol relative to the reference's scale."""
    assert got.dtype == dtype
    assert got.shape == ref.shape
    np.testing.assert_allclose(got, ref, rtol=rtol, atol=rtol * np.abs(ref).max())


GRID = [(1, 0, 7), (1, 1, 7), (2, 1, 7), (3, 0, 9)]
PRECISIONS = [(np.float64, 1e-12), (np.float32, 1e-5)]


@pytest.mark.parametrize("dtype,rtol", PRECISIONS)
@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("stride,pad,hw", GRID)
def test_conv_kernels_match_slot_loops(stride, pad, hw, batch, dtype, rtol):
    rng = np.random.default_rng(10)
    x = rng.standard_normal(batch + (3, hw, hw)).astype(dtype)
    w = rng.standard_normal((4, 3, 3, 3)).astype(dtype)
    y = nn.conv_forward(x, w, stride, pad)
    ref = np.stack([naive_conv(xi.astype(np.float64), w.astype(np.float64), stride, pad)
                    for xi in x.reshape((-1, 3, hw, hw))])
    assert_close(y, ref.reshape(y.shape), dtype, rtol)
    e = rng.standard_normal(y.shape).astype(dtype)
    assert_close(nn.conv_backward_data(e, w, stride, pad),
                 loop_conv_backward_data(e, w, (hw, hw), stride, pad), dtype, rtol)
    assert_close(nn.conv_backward_weights(x, e, 3, stride, pad),
                 loop_conv_backward_weights(x, e, 3, stride, pad), dtype, rtol)


@pytest.mark.parametrize("kernel", ["forward", "backward_data", "backward_weights"])
def test_conv_kernel_peak_below_one_mib(kernel):
    # b-lenet conv1 at batch 8: a whole-batch im2col alone would take 1.9 MiB
    rng = np.random.default_rng(11)
    x = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
    w = rng.standard_normal((6, 3, 5, 5)).astype(np.float32)
    e = rng.standard_normal((8, 6, 28, 28)).astype(np.float32)
    call = {
        "forward": lambda: nn.conv_forward(x, w),
        "backward_data": lambda: nn.conv_backward_data(e, w),
        "backward_weights": lambda: nn.conv_backward_weights(x, e, 5),
    }[kernel]
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("stride,pad,hw", [(1, 0, 7), (1, 1, 7), (2, 1, 7), (3, 0, 9)])
def test_conv_forward_matches_naive(stride, pad, hw):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, hw, hw))
    w = rng.standard_normal((4, 3, 3, 3))
    got = nn.conv_forward(x, w, stride, pad)
    assert np.allclose(got, naive_conv(x, w, stride, pad), atol=1e-12)


def test_conv_forward_batched_equals_loop():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 2, 8, 8))
    w = rng.standard_normal((3, 2, 3, 3))
    batched = nn.conv_forward(x, w)
    for i in range(5):
        assert np.allclose(batched[i], nn.conv_forward(x[i], w))


def test_conv_shape_errors():
    x = np.zeros((3, 8, 8))
    with pytest.raises(nn.ShapeMismatch):
        nn.conv_forward(x, np.zeros((4, 2, 3, 3)))  # channel mismatch
    with pytest.raises(nn.ShapeMismatch):
        nn.conv_forward(x, np.zeros((4, 3, 3, 2)))  # non-square
    with pytest.raises(nn.ShapeMismatch):
        nn.conv_forward(np.zeros((3, 6, 6)), np.zeros((4, 3, 3, 3)), stride=2)


class TestAdjoints:
    """backward_data must be the exact linear adjoint of the forward map:
    <conv(x), e> == <x, conv_backward_data(e)> for all x, e."""

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_conv_data_adjoint(self, stride, pad):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 9, 9))
        w = rng.standard_normal((4, 3, 3, 3))
        y = nn.conv_forward(x, w, stride, pad)
        e = rng.standard_normal(y.shape)
        dx = nn.conv_backward_data(e, w, stride, pad)
        assert np.isclose((y * e).sum(), (x * dx).sum(), atol=1e-10)

    def test_conv_data_is_rot180_full_corr(self):
        # stride 1: propagating errors equals full correlation with the
        # 180-degree-rotated kernels
        rng = np.random.default_rng(3)
        w = rng.standard_normal((2, 3, 3, 3))
        e = rng.standard_normal((2, 6, 6))
        dx = nn.conv_backward_data(e, w)
        w_rot = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).copy()
        ep = np.pad(e, ((0, 0), (2, 2), (2, 2)))
        assert np.allclose(dx, nn.conv_forward(ep, w_rot), atol=1e-12)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (2, 1)])
    def test_conv_weight_gradient_fd(self, stride, pad):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 7, 7))
        w = rng.standard_normal((3, 2, 3, 3))
        e = rng.standard_normal(nn.conv_forward(x, w, stride, pad).shape)
        dw = nn.conv_backward_weights(x, e, 3, stride, pad)
        h = 1e-6
        for idx in [(0, 0, 0, 0), (2, 1, 2, 2), (1, 0, 1, 2)]:
            wp, wm = w.copy(), w.copy()
            wp[idx] += h
            wm[idx] -= h
            fd = ((nn.conv_forward(x, wp, stride, pad) * e).sum()
                  - (nn.conv_forward(x, wm, stride, pad) * e).sum()) / (2 * h)
            assert np.isclose(dw[idx], fd, rtol=1e-5)

    def test_conv_weight_gradient_batch_sums(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 2, 7, 7))
        w = rng.standard_normal((3, 2, 3, 3))
        e = rng.standard_normal((4, 3, 5, 5))
        batched = nn.conv_backward_weights(x, e, 3)
        summed = sum(nn.conv_backward_weights(x[i], e[i], 3) for i in range(4))
        assert np.allclose(batched, summed, atol=1e-10)

    def test_fc_adjoint(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 11))
        w = rng.standard_normal((7, 11))
        e = rng.standard_normal((5, 7))
        assert np.isclose((nn.fc_forward(x, w) * e).sum(),
                          (x * nn.fc_backward_data(e, w)).sum(), atol=1e-10)

    def test_fc_weight_gradient(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 11))
        w = rng.standard_normal((7, 11))
        e = rng.standard_normal((5, 7))
        dw = nn.fc_backward_weights(x, e)
        h = 1e-6
        wp = w.copy(); wp[3, 4] += h
        wm = w.copy(); wm[3, 4] -= h
        fd = ((nn.fc_forward(x, wp) * e).sum() - (nn.fc_forward(x, wm) * e).sum()) / (2 * h)
        assert np.isclose(dw[3, 4], fd, rtol=1e-6)

    @pytest.mark.parametrize("x_shape", [(784,), (1, 784), (8, 784), (512, 784)])
    def test_fc_forward_is_c_contiguous_and_matches_float64(self, x_shape):
        rng = np.random.default_rng(8)
        x = rng.random(x_shape, dtype=np.float32)
        w = rng.standard_normal((400, 784)).astype(np.float32)
        got = nn.fc_forward(x, w)
        assert got.shape == x_shape[:-1] + (400,)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        ref = x.astype(np.float64) @ w.T.astype(np.float64)
        assert np.allclose(got, ref, rtol=1e-5, atol=1e-4)

    def test_fc_forward_rejects_wrong_input_size(self):
        with pytest.raises(nn.ShapeMismatch):
            nn.fc_forward(np.zeros((2, 5)), np.zeros((3, 4)))


class TestActivations:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        out, mask = nn.relu_fwd(x)
        assert np.array_equal(out, [0, 0, 2])
        assert np.array_equal(mask, [False, False, True])
        assert np.array_equal(nn.relu_bwd(np.ones(3), mask), [0, 0, 1])

    def test_maxpool_selects_max(self):
        x = np.arange(16.0).reshape(1, 4, 4)
        out, arg = nn.maxpool_fwd(x, 2)
        assert np.array_equal(out[0], [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_to_argmax(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 6, 6))
        out, arg = nn.maxpool_fwd(x, 2)
        e = rng.standard_normal(out.shape)
        dx = nn.maxpool_bwd(e, arg, 2)
        # total error mass is conserved and lands only on window maxima
        assert np.isclose(dx.sum(), e.sum())
        assert np.count_nonzero(dx) <= e.size


def bits(a):
    """The bytes of an array, so that -0.0 differs from +0.0 and NaN payloads
    count."""
    return np.ascontiguousarray(a).tobytes()


def gather_pool(x, k):
    """Reference pool: np.argmax over each window, its elements in (kr, kc)
    order, and the element it picks."""
    R, C = x.shape[-2] // k, x.shape[-1] // k
    tiles = x.reshape(x.shape[:-2] + (R, k, C, k))
    win = np.moveaxis(tiles, -3, -2).reshape(x.shape[:-2] + (R, C, k * k))
    arg = win.argmax(axis=-1)
    return np.take_along_axis(win, arg[..., None], axis=-1)[..., 0], arg


def masked_add_unpool(e, arg, in_hw, k):
    """Reference backward: each slot's masked error added into zeros."""
    R, C = e.shape[-2:]
    dx = np.zeros(e.shape[:-2] + tuple(in_hw), dtype=e.dtype)
    for kr in range(k):
        for kc in range(k):
            dx[..., kr : kr + R * k : k, kc : kc + C * k : k] += e * (arg == kr * k + kc)
    return dx


def nan_with_payload(payload, dtype=np.float32):
    return np.array(0x7FC00000 | payload, np.uint32).view(dtype)


class TestPoolSemantics:
    """The slot scan follows np.argmax: ties and NaN go to the first such
    element, and the pooled value is that element's bits."""

    @pytest.mark.parametrize("window", [
        [3.0, 3.0, 3.0, 3.0],            # all equal
        [0.0, 0.0, 0.0, 0.0],
        [-0.0, 0.0, -0.0, 0.0],          # signed zeros tie
        [0.0, -0.0, 0.0, -0.0],
        [-1.0, -0.0, 0.0, -2.0],
        [1.0, 5.0, 2.0, 5.0],            # repeated maximum
        [5.0, 1.0, 5.0, 5.0],
        [-np.inf, -np.inf, -np.inf, -np.inf],
        [1.0, np.inf, 2.0, np.inf],
    ])
    def test_ties_follow_argmax(self, window):
        x = np.array(window, np.float32).reshape(1, 1, 2, 2)
        out, slot = nn.maxpool_fwd(x, 2)
        ref_out, ref_arg = gather_pool(x, 2)
        assert np.array_equal(slot, ref_arg)
        assert bits(out) == bits(ref_out)

    @pytest.mark.parametrize("positions", [(0,), (1,), (3,), (1, 2), (0, 3), (0, 1, 2, 3)])
    def test_nan_windows_take_the_first_nan(self, positions):
        window = np.array([1.0, 7.0, -2.0, 7.0], np.float32)
        for n, p in enumerate(positions, 1):
            window[p] = nan_with_payload(n)  # distinct payloads
        x = window.reshape(1, 2, 2)
        out, slot = nn.maxpool_fwd(x, 2)
        ref_out, ref_arg = gather_pool(x, 2)
        assert slot.item() == ref_arg.item() == positions[0]
        assert bits(out) == bits(ref_out) == bits(window[positions[0]])

    @pytest.mark.parametrize("k,dtype", [(2, np.float32), (3, np.float64), (4, np.float32)])
    def test_random_maps_with_ties_and_nan(self, k, dtype):
        rng = np.random.default_rng(k)
        # few distinct values, so most windows hold ties; signed zeros and NaN
        x = rng.choice(np.array([-1.0, -0.0, 0.0, 0.5, 2.0, np.nan], dtype),
                       size=(2, 3, 4 * k, 5 * k))
        out, slot = nn.maxpool_fwd(x, k)
        ref_out, ref_arg = gather_pool(x, k)
        assert out.shape == slot.shape == (2, 3, 4, 5)
        assert np.array_equal(slot, ref_arg)
        assert bits(out) == bits(ref_out)

    @pytest.mark.parametrize("k", [2, 3, 16])
    def test_slot_and_relu_mask_take_one_byte(self, k):
        x = np.random.default_rng(0).standard_normal((2, 3, 2 * k, 2 * k)).astype(np.float32)
        _, slot = nn.maxpool_fwd(x, k)
        assert slot.dtype == np.uint8
        _, mask = nn.relu_fwd(x)
        assert mask.dtype == np.bool_ and mask.itemsize == 1
        assert mask.nbytes == x.size

    def test_slot_widens_past_sixteen(self):
        # 17 * 17 - 1 = 288 slots do not fit a byte
        _, slot = nn.maxpool_fwd(np.zeros((1, 17, 17), np.float32), 17)
        assert slot.dtype == np.uint16 and slot.item() == 0

    def test_shape_errors(self):
        with pytest.raises(nn.ShapeMismatch):
            nn.maxpool_fwd(np.zeros((1, 5, 4), np.float32), 2)

    @pytest.mark.parametrize("k", [2, 3])
    def test_backward_bits_equal_masked_add_into_zeros(self, k):
        rng = np.random.default_rng(10 + k)
        x = rng.choice(np.array([-1.0, 0.0, 1.0, 2.0], np.float32), size=(2, 3, 3 * k, 4 * k))
        _, slot = nn.maxpool_fwd(x, k)
        # -0.0 errors land as +0.0 in the reference; inf errors make NaN
        # wherever they are masked out (inf * 0)
        e = rng.choice(np.array([-0.0, 0.0, -1.5, 3.0, np.inf, -np.inf], np.float32),
                       size=slot.shape)
        with np.errstate(invalid="ignore"):
            dx = nn.maxpool_bwd(e, slot, k)
            ref = masked_add_unpool(e, slot, x.shape[-2:], k)
        assert dx.dtype == ref.dtype and dx.shape == x.shape
        assert bits(dx) == bits(ref)
        assert not np.signbit(dx[dx == 0]).any()


class TestSoftmaxXent:
    def test_uniform_logits(self):
        loss, grad = nn.softmax_xent(np.zeros((1, 4)), np.array([2]))
        assert np.isclose(loss, np.log(4))
        assert np.isclose(grad[0, 2], 0.25 - 1)

    def test_gradient_fd(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((3, 5))
        y = np.array([1, 4, 0])
        _, grad = nn.softmax_xent(z, y)
        h = 1e-6
        for idx in [(0, 1), (2, 3), (1, 4)]:
            zp, zm = z.copy(), z.copy()
            zp[idx] += h
            zm[idx] -= h
            fd = (nn.softmax_xent(zp, y)[0] - nn.softmax_xent(zm, y)[0]) / (2 * h)
            assert np.isclose(grad[idx], fd, rtol=1e-4, atol=1e-8)

    def test_extreme_logits_stay_finite(self):
        loss, grad = nn.softmax_xent(np.array([[1000.0, -1000.0]]), np.array([1]))
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))
