"""Tensor core: kernel oracles, gradient checks, spike semantics."""

import itertools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spikefuse.tensor as tensor_module
from spikefuse.errors import NumericError, ParameterError, ShapeError, StateError
from spikefuse.harness import ARCH_PRESETS
from spikefuse.network import ConvStage, PoolStage, parse_architecture
from spikefuse.rng import Rng
from spikefuse.tensor import (
    BatchNormState,
    Settings,
    Tensor,
    _avgpool_backward,
    avgpool2d,
    batchnorm,
    conv2d,
    dropout,
    hadamard,
    kaiming_uniform,
    linear,
    no_grad,
    relu,
    sigmoid,
    smooth_spike,
    spike,
    stack,
    tmean,
    transpose,
    tsum,
)

from oracles import (
    avgpool_loops,
    batchnorm_reference,
    col2im_slices,
    conv2d_grad_loops,
    conv2d_loops,
    fd_gradient,
    im2col_slices,
    linear_loops,
    rel_err,
    surrogate_slope,
    surrogate_value,
)
from seams import runtime


def rand(shape, seed, dtype=np.float64, scale=1.0):
    return Rng(seed).normal(0.0, scale, size=shape).astype(dtype)


class TestConv2d:
    def test_ones_kernel_sums_window(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        b = Tensor(np.zeros(1))
        out = conv2d(x, w, b, stride=1, padding=0)
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == pytest.approx(9.0)

    def test_gesture_input_layer_shape(self):
        # 128x128, 5x5 kernel, stride 2, same padding -> 64x64
        x = Tensor(np.zeros((1, 2, 128, 128), dtype=np.float32))
        w = Tensor(np.zeros((128, 2, 5, 5), dtype=np.float32))
        b = Tensor(np.zeros(128, dtype=np.float32))
        out = conv2d(x, w, b, stride=2, padding=2)
        assert out.shape == (1, 128, 64, 64)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        x = rand((1, 2, 4, 4), seed)
        w = rand((3, 2, 3, 3), seed + 100)
        b = rand((3,), seed + 200)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1)
        ref = conv2d_loops(x, w, b, stride=1, padding=1)
        assert np.max(np.abs(out.data - ref)) < 1e-12

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 2), (3, 0)])
    def test_stride_padding_grid_vs_oracle(self, stride, padding):
        x = rand((2, 3, 7, 8), 7 + stride)
        w = rand((4, 3, 3, 3), 8 + padding)
        b = rand((4,), 9)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        ref = conv2d_loops(x, w, b, stride=stride, padding=padding)
        assert np.max(np.abs(out.data - ref)) < 1e-12

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((2, 2, 3, 3)))
        with pytest.raises(ShapeError):
            conv2d(x, w, None, 1, 1)

    def test_gradients_match_fd(self):
        x = Tensor(rand((2, 2, 5, 5), 1), requires_grad=True)
        w = Tensor(rand((3, 2, 3, 3), 2), requires_grad=True)
        b = Tensor(rand((3,), 3), requires_grad=True)

        def loss_fn():
            return float((conv2d(x, w, b, stride=2, padding=1).data ** 2).sum() / 2)

        out = conv2d(x, w, b, stride=2, padding=1)
        tsum(out * out * 0.5).backward()
        for t in (x, w, b):
            fd = fd_gradient(loss_fn, t.data)
            assert rel_err(t.grad, fd).max() < 1e-5


def failing_blocks(monkeypatch, failing):
    """Make every conv2d block that starts with sample ``failing`` raise once
    another block is running, and every other block take 20 ms; returns the
    blocks in flight and the threads that ran a block, both kept up to date."""
    in_flight, threads, im2col = set(), set(), tensor_module._im2col

    def slow_im2col(*args):
        gather = im2col(*args)

        def slow_gather(lo, hi):
            in_flight.add(lo)
            threads.add(threading.get_ident())
            try:
                if lo == failing:
                    deadline = time.monotonic() + 5
                    while in_flight == {lo} and time.monotonic() < deadline:
                        time.sleep(0.001)
                    raise RuntimeError(f"block {lo} failed")
                time.sleep(0.02)
                return gather(lo, hi)
            finally:
                in_flight.discard(lo)

        return slow_gather

    monkeypatch.setattr(tensor_module, "_im2col", slow_im2col)
    return in_flight, threads


def conv_grads(x, w, g, stride, padding, x_requires_grad=True):
    """(dx, dw, the output node) of conv2d through the autodiff graph."""
    xt = Tensor(x, requires_grad=x_requires_grad)
    wt = Tensor(w, requires_grad=True)
    out = conv2d(xt, wt, Tensor(np.zeros(w.shape[0]), requires_grad=True), stride, padding)
    tsum(out * Tensor(g)).backward()
    return xt.grad, wt.grad, out


class TestConv2dBackward:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_grid_vs_loop_oracle(self, k, stride, padding):
        # stride > k leaves input rows and columns no window touches
        x = rand((2, 2, 7, 8), 10 * k + stride)
        w = rand((3, 2, k, k), 20 * k + padding)
        h_out = (7 + 2 * padding - k) // stride + 1
        w_out = (8 + 2 * padding - k) // stride + 1
        g = rand((2, 3, h_out, w_out), 30 + stride + padding)
        dx, dw, out = conv_grads(x, w, g, stride, padding)
        ref_dx, ref_dw = conv2d_grad_loops(x, w, g, stride, padding)
        assert np.max(np.abs(out.data - conv2d_loops(x, w, None, stride, padding))) < 1e-12
        assert np.max(np.abs(dx - ref_dx)) < 1e-12
        assert np.max(np.abs(dw - ref_dw)) < 1e-12

    def test_gesture_input_layer_config_vs_loop_oracle(self):
        # the dvs_gesture first layer: 5x5 kernel, stride 2, padding 2
        x = rand((1, 2, 16, 16), 41)
        w = rand((4, 2, 5, 5), 42)
        g = rand((1, 4, 8, 8), 43)
        dx, dw, _ = conv_grads(x, w, g, 2, 2)
        ref_dx, ref_dw = conv2d_grad_loops(x, w, g, 2, 2)
        assert np.max(np.abs(dx - ref_dx)) < 1e-12
        assert np.max(np.abs(dw - ref_dw)) < 1e-12

    def test_batch_chunks_vs_loop_oracle(self, monkeypatch):
        x = rand((5, 2, 6, 6), 51)
        w = rand((3, 2, 3, 3), 52)
        g = rand((5, 3, 3, 3), 53)
        # two samples' patch matrices per block: blocks of 2, 2 and 1
        per_sample = 9 * 2 * 9 * x.itemsize
        monkeypatch.setattr(tensor_module, "_CONV_BLOCK_BYTES", 2 * per_sample)
        dx, dw, out = conv_grads(x, w, g, 2, 1)
        ref_dx, ref_dw = conv2d_grad_loops(x, w, g, 2, 1)
        assert np.max(np.abs(out.data - conv2d_loops(x, w, None, 2, 1))) < 1e-12
        assert np.max(np.abs(dx - ref_dx)) < 1e-12
        assert np.max(np.abs(dw - ref_dw)) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_results_do_not_depend_on_the_block(self, monkeypatch, conv_workers, k, stride, padding, dtype):
        x = rand((5, 2, 7, 8), 10 * k + stride).astype(dtype)
        w = rand((3, 2, k, k), 20 * k + padding).astype(dtype)
        h_out = (7 + 2 * padding - k) // stride + 1
        w_out = (8 + 2 * padding - k) // stride + 1
        g = rand((5, 3, h_out, w_out), 30 + stride + padding).astype(dtype)
        per_sample = h_out * w_out * 2 * k * k * x.itemsize
        # every sample alone, on one thread, and dW as the sum of the
        # samples' in sample order; db is the same sum over the samples
        out_ref, dx_ref, dw_ref = [], [], np.zeros_like(w)
        for i in range(5):
            dx_i, dw_i, out_i = conv_grads(x[i : i + 1], w, g[i : i + 1], stride, padding)
            out_ref.append(out_i.data)
            dx_ref.append(dx_i)
            dw_ref += dw_i
        ref = [np.concatenate(out_ref).tobytes(), np.concatenate(dx_ref).tobytes(), dw_ref.tobytes(),
               g.sum(axis=(0, 2, 3)).tobytes()]
        # blocks of 1 sample, of 2, 2 and 1, the default (the whole batch
        # here) and one whole-batch block, on 1, 2 and 3 threads: split
        # whenever there are at least as many blocks as threads; each with
        # column slabs of one plane, of three and the default
        blocks = (1, 2 * per_sample, tensor_module._CONV_BLOCK_BYTES, 1 << 40)
        slabs = slab_budgets(k, stride, h_out, w_out, x.itemsize)
        for workers in (1, 2, 3):
            conv_workers(workers)
            for budget, slab in itertools.product(blocks, slabs):
                monkeypatch.setattr(tensor_module, "_CONV_BLOCK_BYTES", budget)
                monkeypatch.setattr(tensor_module, "_CONV_SLAB_BYTES", slab)
                dx, dw, out = conv_grads(x, w, g, stride, padding)
                db = out._backward_fn(g)[2]
                assert [out.data.tobytes(), dx.tobytes(), dw.tobytes(), db.tobytes()] == ref

    def test_wider_gradient_than_input_vs_loop_oracle(self):
        # an f64 gradient into an f32 conv: its patch gradients cannot share
        # the f32 patch buffer
        x, w = rand((3, 2, 7, 8), 59).astype(np.float32), rand((3, 2, 3, 3), 60).astype(np.float32)
        g = rand((3, 3, 4, 4), 61)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        dx, dw, _ = conv2d(xt, wt, None, 2, 1)._backward_fn(g)
        ref_dx, ref_dw = conv2d_grad_loops(x.astype(np.float64), w.astype(np.float64), g, 2, 1)
        assert dx.dtype == dw.dtype == np.float32
        assert np.max(np.abs(dx - ref_dx)) < 1e-5
        assert np.max(np.abs(dw - ref_dw)) < 1e-5

    def test_call_below_the_gate_submits_no_pool_task(self, monkeypatch):
        monkeypatch.setattr(tensor_module, "_CONV_BLOCK_BYTES", 1)  # one sample per block
        w = rand((3, 2, 3, 3), 55)
        # one block fewer than the gate for two threads runs on the caller,
        # and only a call that splits makes the pool
        n = 2 * tensor_module._CONV_BLOCKS_PER_WORKER - 1
        with runtime(conv_workers=2) as pools:
            conv_grads(rand((n, 2, 6, 6), 54), w, rand((n, 3, 6, 6), 56), 1, 1)
            assert pools == {}
            conv_grads(rand((n + 1, 2, 6, 6), 54), w, rand((n + 1, 3, 6, 6), 56), 1, 1)
            assert list(pools) == [2]

    def test_threads_making_the_pool_at_once_share_one(self, monkeypatch, conv_workers):
        x, w = rand((4, 2, 6, 6), 62), rand((3, 2, 3, 3), 63)
        serial = conv2d(Tensor(x), Tensor(w), None, 1, 1).data.tobytes()  # one block: no split
        monkeypatch.setattr(tensor_module, "_CONV_BLOCK_BYTES", 1)  # one sample per block
        pools, run_blocks, ran_on, got = conv_workers(2), tensor_module._run_blocks, set(), []
        monkeypatch.setattr(tensor_module, "_run_blocks", lambda parts, n, work: run_blocks(
            parts, n, lambda part, i: (ran_on.add(threading.current_thread()), work(part, i))))
        start = threading.Barrier(2)

        def first_call():
            start.wait()
            got.append(conv2d(Tensor(x), Tensor(w), None, 1, 1).data.tobytes())

        callers = [threading.Thread(target=first_call) for _ in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(60)
        # both serial bitwise; one pool for the count, and it ran every block off the callers
        assert got == [serial, serial] and list(pools) == [2]
        assert ran_on - set(callers) <= set(pools[2]._threads)

    @pytest.mark.parametrize("failing", [0, 1, 4])
    def test_failing_block_raises_after_every_part_ends(self, monkeypatch, conv_workers, failing):
        conv_workers(3)
        x, w = rand((6, 2, 6, 6), 57), rand((3, 2, 3, 3), 58)
        monkeypatch.setattr(tensor_module, "_CONV_BLOCK_BYTES", 1)  # one sample per block
        serial = conv2d(Tensor(x), Tensor(w), None, 1, 1).data
        im2col = tensor_module._im2col
        in_flight, threads = failing_blocks(monkeypatch, failing)
        with pytest.raises(RuntimeError, match=f"block {failing} failed"):
            conv2d(Tensor(x), Tensor(w), None, 1, 1)
        assert in_flight == set()
        assert len(threads) > 1
        monkeypatch.setattr(tensor_module, "_im2col", im2col)
        assert conv2d(Tensor(x), Tensor(w), None, 1, 1).data.tobytes() == serial.tobytes()

    @pytest.mark.parametrize("failing", [0, 1, 4])
    def test_failing_backward_block_raises_after_every_part_ends(self, monkeypatch, conv_workers, failing):
        x, w, g = rand((6, 2, 6, 6), 57), rand((3, 2, 3, 3), 58), rand((6, 3, 6, 6), 59)
        monkeypatch.setattr(tensor_module, "_CONV_BLOCK_BYTES", 1)  # one sample per block

        def conv():
            return conv2d(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True), None, 1, 1)

        conv_workers(1)
        serial = [grad.tobytes() for grad in conv()._backward_fn(g)[:2]]
        # three threads and six blocks: the backward runs two rounds
        conv_workers(3)
        out = conv()
        im2col = tensor_module._im2col
        in_flight, threads = failing_blocks(monkeypatch, failing)
        with pytest.raises(RuntimeError, match=f"block {failing} failed"):
            out._backward_fn(g)
        assert in_flight == set()
        assert len(threads) > 1
        monkeypatch.setattr(tensor_module, "_im2col", im2col)
        assert [grad.tobytes() for grad in out._backward_fn(g)[:2]] == serial

    def test_every_block_runs_once_and_no_task_outlives_the_call(self, conv_workers):
        # more threads than cores, switching as often as the interpreter allows
        parts, n = 5, 300
        conv_workers(parts)
        lock = threading.Lock()
        done, in_flight = [0] * n, [0]

        def work(part, block):
            with lock:
                in_flight[0] += 1
            # some blocks finish late, as on a descheduled thread
            time.sleep(0.001 if block % 7 == 0 else 0)
            with lock:
                done[block] += 1
                in_flight[0] -= 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=tensor_module._run_blocks, args=(parts, n, work))
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert in_flight == [0]
        assert done == [1] * n

    @pytest.mark.parametrize("k,stride,padding", [(1, 1, 0), (5, 2, 2)])
    def test_input_without_grad_gets_no_dx(self, k, stride, padding):
        x = rand((2, 2, 8, 8), 61)
        w = rand((3, 2, k, k), 62)
        h_out = (8 + 2 * padding - k) // stride + 1
        g = rand((2, 3, h_out, h_out), 63)
        _, dw_with_dx, _ = conv_grads(x, w, g, stride, padding)
        dx, dw, out = conv_grads(x, w, g, stride, padding, x_requires_grad=False)
        assert dx is None
        assert np.array_equal(dw, dw_with_dx)
        assert out._backward_fn(g)[0] is None


def out_size(n, k, stride, padding):
    return (n + 2 * padding - k) // stride + 1


def slab_budgets(k, stride, h_out, w_out, itemsize):
    """Column-slab budgets of one plane, of three planes (which divide no
    block of 2, 4 or 10 planes) and the default."""
    plane = k * (k + stride * (h_out - 1)) * w_out * itemsize
    return plane, 3 * plane, tensor_module._CONV_SLAB_BYTES


def gather_blocks(x, k, stride, padding, blk):
    """conv2d's patch matrix of ``x``, gathered in blocks of ``blk`` samples."""
    h_out, w_out = out_size(x.shape[2], k, stride, padding), out_size(x.shape[3], k, stride, padding)
    gather = tensor_module._im2col(x, k, stride, padding, h_out, w_out, blk)
    # a block's patches live in the gather's buffer until the next block
    return np.concatenate([gather(lo, min(lo + blk, len(x))).copy() for lo in range(0, len(x), blk)])


def scatter_blocks(dcols, x_shape, k, stride, padding, blk):
    """conv2d's col2im of the patch gradients ``dcols``, in blocks of ``blk``
    samples, into a zeroed input gradient."""
    h_out, w_out = out_size(x_shape[2], k, stride, padding), out_size(x_shape[3], k, stride, padding)
    dx = np.zeros(x_shape, dtype=dcols.dtype)
    scatter = tensor_module._col2im(dx, dcols.dtype, k, stride, padding, h_out, w_out, blk)
    for lo in range(0, len(dx), blk):
        scatter(lo, min(lo + blk, len(dx)), dcols[lo : lo + blk])
    return dx


def bench_conv_shapes():
    """(cin, h, w, k, stride, padding) of every convolution the benchmark's
    workloads run: synth_bar at 16x16 and 32x32, dvs_gesture at 128x128."""
    shapes = []
    for preset, size in (("synth_bar", 16), ("synth_bar", 32), ("dvs_gesture", 128)):
        c, h, w = 2, size, size
        for stage in parse_architecture(ARCH_PRESETS[preset], input_shape=(c, h, w)).stages:
            if isinstance(stage, ConvStage):
                shapes.append((c, h, w, stage.kernel, stage.stride, stage.padding))
                c, (h, w) = stage.out_channels, stage.out_hw
            elif isinstance(stage, PoolStage):
                h, w = h // stage.k, w // stage.k
    return shapes


class TestPatchGather:
    """conv2d's two-stage gather against the one-copy-per-offset slices, and
    its scatter against the gather's transpose. Blocks of two samples of two
    channels: 4 planes a block, 2 in the last."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_patches_are_the_slice_oracles_bitwise(self, monkeypatch, k, stride, padding, dtype):
        # odd width 9; k = 1 with padding 1 or 2 has windows wholly in the padding
        x = rand((5, 2, 7, 9), 70 + 10 * k + stride, dtype=dtype)
        ref = im2col_slices(x, k, stride, padding).tobytes()
        for budget in slab_budgets(k, stride, out_size(7, k, stride, padding), out_size(9, k, stride, padding),
                                   x.itemsize):
            monkeypatch.setattr(tensor_module, "_CONV_SLAB_BYTES", budget)
            assert gather_blocks(x, k, stride, padding, 2).tobytes() == ref

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_scatter_is_the_gathers_adjoint(self, monkeypatch, k, stride, padding):
        h_out, w_out = out_size(7, k, stride, padding), out_size(9, k, stride, padding)
        x = rand((5, 2, 7, 9), 80 + 10 * k + stride)
        dcols = rand((5, 2 * k * k, h_out * w_out), 90 + padding)
        ref = col2im_slices(dcols, x.shape, k, stride, padding)
        for budget in slab_budgets(k, stride, h_out, w_out, x.itemsize):
            monkeypatch.setattr(tensor_module, "_CONV_SLAB_BYTES", budget)
            dx = scatter_blocks(dcols, x.shape, k, stride, padding, 2)
            # <gather(x), G> = <x, scatter(G)>
            assert abs(np.vdot(gather_blocks(x, k, stride, padding, 2), dcols) - np.vdot(x, dx)) < 1e-12
            assert np.max(np.abs(dx - ref)) < 1e-12

    @pytest.mark.parametrize("cin,h,w,k,stride,padding", bench_conv_shapes())
    def test_every_bench_conv_gathers_the_slice_oracles_bitwise(self, cin, h, w, k, stride, padding):
        x = rand((2, cin, h, w), h + cin, dtype=np.float32)
        per_sample = out_size(h, k, stride, padding) * out_size(w, k, stride, padding) * cin * k * k * x.itemsize
        blk = max(1, min(2, tensor_module._CONV_BLOCK_BYTES // per_sample))  # as conv2d blocks them
        assert gather_blocks(x, k, stride, padding, blk).tobytes() == im2col_slices(x, k, stride, padding).tobytes()


class TestTranspose:
    def test_forward_is_a_contiguous_permutation(self):
        a = rand((2, 3, 4), 70)
        out = transpose(Tensor(a), (1, 2, 0))
        assert out.shape == (3, 4, 2)
        assert out.data.flags.c_contiguous
        assert np.array_equal(out.data, np.transpose(a, (1, 2, 0)))
        for i in range(2):
            assert np.array_equal(out.data[:, :, i], a[i])

    def test_backward_is_the_inverse_permutation(self):
        x = Tensor(rand((2, 3, 4), 71), requires_grad=True)
        g = rand((4, 2, 3), 72)
        tsum(transpose(x, (2, 0, 1)) * Tensor(g)).backward()
        assert np.array_equal(x.grad, np.transpose(g, (1, 2, 0)))

    def test_gradient_matches_fd(self):
        x = Tensor(rand((3, 2, 4), 73), requires_grad=True)
        w = Tensor(rand((2, 4, 3), 74))

        def loss(t):
            y = transpose(t, (1, 2, 0))
            return tsum(y * y * w)

        loss(x).backward()
        fd = fd_gradient(lambda: loss(Tensor(x.data)).item(), x.data)
        assert rel_err(x.grad, fd).max() < 1e-7

    def test_rejects_a_non_permutation(self):
        x = Tensor(rand((2, 3), 75))
        for axes in [(0,), (0, 0), (0, 2), (1, 0, 2)]:
            with pytest.raises(ShapeError):
                transpose(x, axes)


class TestLinear:
    def test_identity(self):
        out = linear(Tensor([[3.0, 5.0]]), Tensor(np.eye(2)), Tensor(np.zeros(2)))
        assert np.allclose(out.data, [[3.0, 5.0]])

    def test_half_weights_and_bias(self):
        out = linear(
            Tensor([[1.0, 1.0, 1.0, 1.0]]), Tensor(np.full((1, 4), 0.5)), Tensor([1.0])
        )
        assert out.data[0, 0] == pytest.approx(3.0)

    def test_matches_matmul_oracle(self):
        x = rand((2, 8), 5)
        w = rand((3, 8), 6)
        b = rand((3,), 7)
        out = linear(Tensor(x), Tensor(w), Tensor(b))
        assert np.max(np.abs(out.data - linear_loops(x, w, b))) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), None)

    def test_gradients_match_fd(self):
        x = Tensor(rand((3, 4), 11), requires_grad=True)
        w = Tensor(rand((2, 4), 12), requires_grad=True)
        b = Tensor(rand((2,), 13), requires_grad=True)

        def loss_fn():
            return float((linear(x, w, b).data ** 2).sum())

        out = linear(x, w, b)
        tsum(out * out).backward()
        for t in (x, w, b):
            assert rel_err(t.grad, fd_gradient(loss_fn, t.data)).max() < 1e-5


class TestAvgPool:
    def test_block_mean(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert avgpool2d(x, 2).item() == pytest.approx(2.5)

    def test_constant_preserved(self):
        x = Tensor(np.full((1, 2, 4, 4), 3.25))
        assert np.allclose(avgpool2d(x, 2).data, 3.25)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_loop_oracle(self, k):
        x = rand((2, 3, 3 * k, 2 * k), 21 + k)
        out = avgpool2d(Tensor(x), k)
        assert np.max(np.abs(out.data - avgpool_loops(x, k))) < 1e-12

    def test_indivisible_raises(self):
        with pytest.raises(ShapeError):
            avgpool2d(Tensor(np.zeros((1, 1, 5, 4))), 2)

    def test_gradient(self):
        x = Tensor(rand((1, 2, 4, 4), 22), requires_grad=True)

        def loss_fn():
            return float((avgpool2d(x, 2).data ** 2).sum())

        out = avgpool2d(x, 2)
        tsum(out * out).backward()
        assert rel_err(x.grad, fd_gradient(loss_fn, x.data)).max() < 1e-5

    @pytest.mark.parametrize("k", [1, 2])
    def test_backward_divides_into_out_without_a_temporary(self, k):
        # a 1 MiB output: g / (k*k) whole would take 1 MiB at k=1, 256 KiB at k=2
        g = np.ones((4, 16, 64 // k, 64 // k), dtype=np.float32)
        out = np.empty((4, 16, 64, 64), dtype=np.float32)
        tracemalloc.start()
        try:
            _avgpool_backward(g, k, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak
        assert np.all(out == np.float32(1.0 / (k * k)))


class TestBatchNorm:
    def test_already_normalized_is_identity(self):
        rng = Rng(31)
        x = rng.normal(0, 1, size=(8, 3, 4, 4))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        state = BatchNormState(3, np.float64)
        out = batchnorm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), state, True)
        assert np.max(np.abs(out.data - x)) < 1e-4  # eps-term tolerance

    def test_zero_gamma_gives_beta(self):
        x = rand((2, 3, 4, 4), 32)
        beta = np.array([1.0, -2.0, 0.5])
        out = batchnorm(Tensor(x), Tensor(np.zeros(3)), Tensor(beta), BatchNormState(3, np.float64), True)
        assert np.allclose(out.data, beta[None, :, None, None] * np.ones_like(x))

    def test_train_statistics(self):
        # Input variance large enough that the eps=1e-5 term is negligible.
        x = rand((16, 4, 6, 6), 33, scale=20.0)
        out = batchnorm(
            Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)), BatchNormState(4, np.float64), True
        ).data
        assert np.max(np.abs(out.mean(axis=(0, 2, 3)))) < 1e-10
        assert np.max(np.abs(out.var(axis=(0, 2, 3)) - 1.0)) < 1e-6

    def test_eval_before_stats_raises(self):
        with pytest.raises(StateError):
            batchnorm(
                Tensor(np.zeros((1, 2, 2, 2))),
                Tensor(np.ones(2)),
                Tensor(np.zeros(2)),
                BatchNormState(2),
                False,
            )

    def test_eval_uses_running_stats(self):
        state = BatchNormState(2, np.float64)
        x_train = rand((8, 2, 3, 3), 34)
        batchnorm(Tensor(x_train), Tensor(np.ones(2)), Tensor(np.zeros(2)), state, True)
        assert state.initialized
        x = rand((4, 2, 3, 3), 35)
        out = batchnorm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), state, False)
        expect = (x - state.mean[None, :, None, None]) / np.sqrt(
            state.var[None, :, None, None] + 1e-5
        )
        assert np.allclose(out.data, expect)

    def test_gradients_match_fd(self):
        x = Tensor(rand((4, 2, 3, 3), 36), requires_grad=True)
        gamma = Tensor(rand((2,), 37) + 1.0, requires_grad=True)
        beta = Tensor(rand((2,), 38), requires_grad=True)
        # Random output weighting so the loss is not invariant to x (a plain
        # sum of squared normalized values nearly is).
        r = Tensor(rand((4, 2, 3, 3), 39))

        def loss_fn():
            state = BatchNormState(2, np.float64)
            out = batchnorm(x, gamma, beta, state, True).data * r.data
            return float((out**2).sum())

        out = batchnorm(x, gamma, beta, BatchNormState(2, np.float64), True) * r
        tsum(out * out).backward()
        for t in (x, gamma, beta):
            assert rel_err(t.grad, fd_gradient(loss_fn, t.data)).max() < 1e-4

    @pytest.mark.parametrize("training", [True, False])
    def test_matches_reference(self, training):
        x = rand((3, 2, 4, 5), 80, scale=2.0) + 0.5
        gamma = rand((2,), 81) + 1.0
        beta = rand((2,), 82)
        g = rand((3, 2, 4, 5), 83)
        state = BatchNormState(2, np.float64)
        state.mean[...] = rand((2,), 84)
        state.var[...] = np.abs(rand((2,), 85)) + 0.5
        state.initialized = True
        ref = batchnorm_reference(x, gamma, beta, g, state.mean.copy(), state.var.copy(), training)
        xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
        out = batchnorm(xt, gt, bt, state, training)
        tsum(out * Tensor(g)).backward()
        ours = (out.data, xt.grad, gt.grad, bt.grad, state.mean, state.var)
        for mine, theirs in zip(ours, ref):
            assert np.max(np.abs(mine - theirs)) < 1e-12

    def test_is_one_graph_node(self):
        x = Tensor(rand((2, 3, 4, 4), 86), requires_grad=True)
        gamma, beta = Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True)
        out = batchnorm(x, gamma, beta, BatchNormState(3, np.float64), True)
        assert out._parents == (x._node, gamma._node, beta._node)
        assert all(p._backward_fn is None for p in out._parents)

    def test_eval_gradients_match_fd(self):
        state = BatchNormState(2, np.float64)
        batchnorm(Tensor(rand((8, 2, 3, 3), 87)), Tensor(np.ones(2)), Tensor(np.zeros(2)), state, True)
        x = Tensor(rand((4, 2, 3, 3), 88), requires_grad=True)
        gamma = Tensor(rand((2,), 89) + 1.0, requires_grad=True)
        beta = Tensor(rand((2,), 90), requires_grad=True)
        r = Tensor(rand((4, 2, 3, 3), 91))

        def loss_fn():
            out = batchnorm(x, gamma, beta, state, False).data * r.data
            return float((out**2).sum())

        out = batchnorm(x, gamma, beta, state, False) * r
        tsum(out * out).backward()
        # The loss is quadratic in every input, so central differences are
        # exact but for rounding, about 1e-9 absolute at this loss size.
        for t in (x, gamma, beta):
            assert rel_err(t.grad, fd_gradient(loss_fn, t.data), floor=1e-3).max() < 1e-5


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).item() == pytest.approx(0.5)

    def test_relu_negative(self):
        assert relu(Tensor([-2.0])).item() == 0.0

    def test_hadamard_broadcast_channel_shapes(self):
        # (C,1,1) against (1,H,W) must broadcast to (C,H,W)
        a = Tensor(np.full((1, 1, 1), 2.0))
        b = Tensor(np.ones((1, 2, 2)))
        out = hadamard(a, b)
        assert out.shape == (1, 2, 2)
        assert np.all(out.data == 2.0)

    def test_hadamard_rejects_incompatible(self):
        with pytest.raises(ShapeError):
            hadamard(Tensor(np.zeros((3, 1))), Tensor(np.zeros((2, 4, 5))))

    @given(
        st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**31 - 1)
    )
    @settings(max_examples=30, deadline=None)
    def test_hadamard_commutes(self, c, hw, seed):
        a = Rng(seed).normal(size=(c, 1, 1))
        b = Rng(seed + 1).normal(size=(1, hw, hw))
        ab = hadamard(Tensor(a), Tensor(b)).data
        ba = hadamard(Tensor(b), Tensor(a)).data
        assert np.array_equal(ab, ba)

    def test_sigmoid_gradient(self):
        x = Tensor(rand((5,), 41), requires_grad=True)

        def loss_fn():
            return float(sigmoid(x).data.sum())

        tsum(sigmoid(x)).backward()
        assert rel_err(x.grad, fd_gradient(loss_fn, x.data)).max() < 1e-5


class TestSpike:
    def test_above_threshold_fires(self):
        assert spike(Tensor([1.2]), 1.15).item() == 1.0

    def test_at_threshold_fires_with_unit_slope(self):
        v = Tensor([1.15], requires_grad=True)
        s = spike(v, 1.15)
        assert s.item() == 1.0
        tsum(s).backward()
        assert v.grad[0] == pytest.approx(1.0)  # alpha/2 at alpha=2

    def test_far_below_threshold(self):
        v = Tensor([-10.0], requires_grad=True)
        s = spike(v, 0.8)
        assert s.item() == 0.0
        tsum(s).backward()
        assert v.grad[0] < 1e-2
        assert v.grad[0] == pytest.approx(surrogate_slope(-10.0, 0.8))

    @given(st.integers(0, 2**31 - 1), st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_output_binary_and_counts(self, seed, n):
        v = Rng(seed).normal(0.0, 2.0, size=n)
        out = spike(Tensor(v), 1.15).data
        assert set(np.unique(out)) <= {0.0, 1.0}
        assert out.sum() == np.count_nonzero(v >= 1.15)


class TestSmoothSpike:
    def test_half_at_threshold(self):
        assert smooth_spike(Tensor([0.8]), 0.8).item() == pytest.approx(0.5)

    def test_saturates_toward_one(self):
        assert smooth_spike(Tensor([1e9]), 0.8).item() == pytest.approx(1.0, abs=1e-6)

    def test_value_one_above_threshold(self):
        # alpha=2: g(v_th + 1) = arctan(pi)/pi + 1/2
        expect = math.atan(math.pi) / math.pi + 0.5
        assert smooth_spike(Tensor([1.8]), 0.8).item() == pytest.approx(expect)
        assert surrogate_value(1.8, 0.8) == pytest.approx(expect)

    def test_gradient_is_spike_surrogate(self):
        v = Tensor(rand((7,), 42), requires_grad=True)
        tsum(smooth_spike(v, 0.5)).backward()
        smooth_grad = v.grad.copy()
        v.zero_grad()
        tsum(spike(v, 0.5)).backward()
        assert np.allclose(smooth_grad, v.grad)

        def loss_fn():
            return float(smooth_spike(v, 0.5).data.sum())

        assert rel_err(smooth_grad, fd_gradient(loss_fn, v.data)).max() < 1e-5


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(rand((4, 4), 51))
        out = dropout(x, 0.0, np.ones((4, 4)))
        assert np.array_equal(out.data, x.data)

    def test_zero_mask_zeroes(self):
        x = Tensor(rand((4, 4), 52))
        out = dropout(x, 0.5, np.zeros((4, 4)))
        assert np.all(out.data == 0.0)

    def test_bad_rate(self):
        with pytest.raises(ParameterError):
            dropout(Tensor([1.0]), 1.0, np.ones(1))

    @pytest.mark.parametrize("mask_shape", [(3,), (2, 1, 2), (4, 2)])
    def test_mask_that_does_not_broadcast(self, mask_shape):
        with pytest.raises(ShapeError, match="does not broadcast"):
            dropout(Tensor(np.ones((2, 2))), 0.5, np.ones(mask_shape))

    def test_mean_preserved_over_masks(self):
        # E[mask / (1-rate)] = 1, so the expectation over many masks matches.
        rng = Rng(54)
        x = np.full(100, 2.0)
        rate = 0.5
        acc = np.zeros_like(x)
        n = 100_000
        masks = rng.random((n, 100)) >= rate
        acc = (masks / (1 - rate)).mean(axis=0) * x
        assert abs(acc.mean() - x.mean()) / x.mean() < 0.01


class TestBackward:
    def test_linear_form(self):
        x = Tensor([1.0, 2.0, 3.0])
        w = Tensor([4.0, 5.0, 6.0], requires_grad=True)
        tsum(hadamard(w, x)).backward()
        assert np.allclose(w.grad, x.data)

    def test_chain_rule_by_hand(self):
        # d/dw sigmoid(w)^2 at w=0: 2 * 0.5 * 0.25 = 0.25
        w = Tensor([0.0], requires_grad=True)
        tsum(sigmoid(w) * sigmoid(w)).backward()
        assert w.grad[0] == pytest.approx(0.25)

    def test_accumulation_is_additive(self):
        w = Tensor([2.0], requires_grad=True)
        loss = tsum(w * w)
        loss.backward()
        first = w.grad.copy()
        loss.backward()
        assert np.allclose(w.grad, 2 * first)
        w.zero_grad()
        assert w.grad is None

    def test_fanout_sums_contributions(self):
        w = Tensor([3.0], requires_grad=True)
        y = w * w + w  # dy/dw = 2w + 1 = 7
        tsum(y).backward()
        assert w.grad[0] == pytest.approx(7.0)

    def test_non_scalar_backward_raises(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0], requires_grad=True).backward()

    def test_random_composition_matches_fd(self):
        x = Tensor(rand((3, 4), 61), requires_grad=True)
        w = Tensor(rand((2, 4), 62), requires_grad=True)

        def compute():
            h = sigmoid(linear(x, w))
            return tsum(h * h) * 0.5

        compute().backward()

        def loss_fn():
            return compute().item()

        for t in (x, w):
            assert rel_err(t.grad, fd_gradient(loss_fn, t.data)).max() < 1e-5

    def test_getitem_stack_reshape_roundtrip_grads(self):
        x = Tensor(rand((3, 2, 2), 63), requires_grad=True)
        parts = [x[i] * float(i + 1) for i in range(3)]
        y = stack(parts, axis=0).reshape(3, 4)
        tsum(y * y).backward()

        def loss_fn():
            vals = np.stack([x.data[i] * (i + 1) for i in range(3)]).reshape(3, 4)
            return float((vals**2).sum())

        assert rel_err(x.grad, fd_gradient(loss_fn, x.data)).max() < 1e-5


class TestDeterminismAndModes:
    def test_fixed_seed_bitwise_repeatable(self):
        def run():
            rng = Rng(99).split("weights")
            w = kaiming_uniform((4, 4), 4, rng, np.float32)
            x = Tensor(Rng(98).normal(size=(2, 4)).astype(np.float32))
            out = linear(x, w)
            loss = tsum(out * out)
            loss.backward()
            return w.data.copy(), w.grad.copy(), loss.item()

        w1, g1, l1 = run()
        w2, g2, l2 = run()
        assert np.array_equal(w1, w2) and np.array_equal(g1, g2) and l1 == l2

    def test_no_grad_blocks_graph(self):
        w = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = w * w
        assert not y.requires_grad

    def test_debug_nan_toggle(self):
        with runtime(debug_nan=True), np.errstate(divide="ignore"), pytest.raises(NumericError):
            Tensor([1.0]) / Tensor([0.0])

    @pytest.mark.parametrize("environ, on", [({}, False), ({"SPIKEFUSE_DEBUG_NAN": ""}, False),
                                             ({"SPIKEFUSE_DEBUG_NAN": "0"}, False),
                                             ({"SPIKEFUSE_DEBUG_NAN": "1"}, True)])
    def test_debug_nan_switch_values(self, monkeypatch, environ, on):
        monkeypatch.delenv("SPIKEFUSE_DEBUG_NAN", raising=False)
        for name, value in environ.items():
            monkeypatch.setenv(name, value)
        assert Settings.from_process().debug_nan is on

    @pytest.mark.parametrize("value", ["true", "yes", "2", " 1", "on"])
    def test_debug_nan_bad_value_names_variable_and_value(self, monkeypatch, value):
        monkeypatch.setenv("SPIKEFUSE_DEBUG_NAN", value)
        with pytest.raises(ParameterError, match=f"^SPIKEFUSE_DEBUG_NAN must be .*, got {value!r}$"):
            Settings.from_process()

    def test_mean_reduction_gradient(self):
        x = Tensor(rand((4, 5), 71), requires_grad=True)

        def loss_fn():
            return float((x.data.mean(axis=1) ** 2).sum())

        m = tmean(x, axis=1)
        tsum(m * m).backward()
        assert rel_err(x.grad, fd_gradient(loss_fn, x.data)).max() < 1e-5
