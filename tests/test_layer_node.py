"""The layer node with batch norm and pooling against the op composition
``batchnorm -> lif_sequence -> avgpool2d``: outputs,
membrane, running statistics and every gradient bitwise, in f32 and f64."""

import gc
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import spikefuse.neuron as neuron_module
import spikefuse.tensor as tensor_module
from spikefuse import training
from spikefuse.attention import AttentionVariant, init_attention_params
from spikefuse.errors import NumericError, ParameterError, ShapeError, StateError
from spikefuse.harness import ARCH_PRESETS, HYPER_PRESETS
from spikefuse.network import ConvStage, SpikingNetwork, _SpikingLayer, parse_architecture
from spikefuse.neuron import BatchNorm, LifConfig, lif_sequence
from spikefuse.rng import Rng
from spikefuse.tensor import (
    BatchNormState,
    BN_EPS,
    Tensor,
    _topo_order,
    avgpool2d,
    batchnorm,
    conv2d,
    no_grad,
    tsum,
)

from seams import apply_seams, pin_spatial, runtime

CFG = LifConfig(v_th=1.0, kappa=0.7)
T, B, C, HW = 3, 2, 4, 6


def layer_case(variant, dtype, seed=0, batch=B):
    """Conv-output currents [T*B, C, H, W] that drive some neurons past
    threshold after batch norm, the norm and gate parameters, and running
    statistics as an earlier training forward leaves them."""
    rng = Rng(seed)
    currents = rng.normal(0.3, 1.2, size=(T * batch, C, HW, HW)).astype(dtype)
    gamma = rng.uniform(0.8, 1.6, size=C).astype(dtype)
    beta = rng.normal(0.5, 0.3, size=C).astype(dtype)
    stats = (rng.normal(0, 0.2, size=C).astype(dtype), rng.uniform(0.5, 2.0, size=C).astype(dtype))
    att = init_attention_params(C, 2, AttentionVariant(variant), rng.split("att"), dtype)
    return currents, gamma, beta, stats, att


def gate_tensors(att):
    return [] if att is None else [p for _, p in att.named()]


def run_layer(fused, case, mode, pool, smooth, passes=1, constant_norm=False):
    """One forward and ``passes`` backward passes of the layer; returns its
    output, membrane, running statistics and the gradients of the currents,
    gamma, beta and every gate parameter. With ``constant_norm`` the
    currents, gamma and beta need no gradient: only the gate's flow."""
    currents, gamma, beta, (mean, var), att = case
    x = Tensor(currents.copy(), requires_grad=not constant_norm)
    g = Tensor(gamma.copy(), requires_grad=not constant_norm)
    b = Tensor(beta.copy(), requires_grad=not constant_norm)
    state = BatchNormState(C, currents.dtype)
    state.mean[...], state.var[...], state.initialized = mean, var, True
    for p in gate_tensors(att):
        p.grad = None
    if fused:
        norm = None if mode == "none" else BatchNorm(g, b, state, mode == "train")
        out, v = lif_sequence(x, CFG, att, smooth=smooth, timesteps=T, norm=norm, pool=pool)
    else:
        cur = x if mode == "none" else batchnorm(x, g, b, state, mode == "train")
        out, v = lif_sequence(cur, CFG, att, smooth=smooth, timesteps=T)
        if pool > 1:
            out = avgpool2d(out, pool)
    weighting = Rng(99).normal(0, 1, size=out.shape).astype(currents.dtype)
    loss = tsum(out * Tensor(weighting))
    for _ in range(passes):
        loss.backward()
    grads = [x.grad, g.grad, b.grad] + [p.grad for p in gate_tensors(att)]
    return out.data, v, (state.mean.copy(), state.var.copy()), grads


def assert_bitwise(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestAgainstComposition:
    @pytest.mark.parametrize("variant", ["bl", "stfa", "ctfa", "sctfa"])
    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("pool", [1, 2])
    @pytest.mark.parametrize("mode", ["train", "eval", "none"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise(self, variant, smooth, pool, mode, dtype):
        case = layer_case(variant, dtype, seed=len(variant) + pool)
        ref = run_layer(False, case, mode, pool, smooth)
        got = run_layer(True, case, mode, pool, smooth)
        assert_bitwise(got[0], ref[0])
        assert_bitwise(got[1], ref[1])
        for a, b in zip(got[2], ref[2]):
            assert_bitwise(a, b)
        for a, b in zip(got[3], ref[3]):
            assert_bitwise(a, b)
        if not smooth and pool == 1:  # the case exercises both spike values
            assert 0 < ref[0].sum() < ref[0].size

    # (pin the spatial branch to exactly 1, remove the channel branch): see seams.py
    @pytest.mark.parametrize("unit", [(True, False), (False, True), (True, True)])
    def test_unit_branches_bitwise(self, unit):
        *case, att = layer_case("sctfa", np.float64, seed=4)
        case = (*case, apply_seams(att, *unit))
        ref = run_layer(False, case, "train", 2, False)
        got = run_layer(True, case, "train", 2, False)
        for a, b in zip(got[:2] + tuple(got[3]), ref[:2] + tuple(ref[3])):
            assert_bitwise(a, b)

    @pytest.mark.parametrize("variant", ["stfa", "sctfa"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pinned_spatial_gate_bitwise(self, variant, dtype):
        # a spatial gate of exactly 1, forward and backward
        *case, att = layer_case(variant, dtype, seed=6)
        case = (*case, pin_spatial(att))
        ref = run_layer(False, case, "train", 2, False)
        got = run_layer(True, case, "train", 2, False)
        for a, b in zip(got[:2] + tuple(got[3]), ref[:2] + tuple(ref[3])):
            assert_bitwise(a, b)
        assert not got[3][3].any()  # the sigmoid's slope at exactly 1 is 0

    @pytest.mark.parametrize("pool", [1, 2])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_gate_gradients_through_constant_norm(self, mode, pool):
        # neither the currents nor gamma/beta need a gradient; the gate does
        case = layer_case("sctfa", np.float64, seed=5)
        ref = run_layer(False, case, mode, pool, False, constant_norm=True)
        got = run_layer(True, case, mode, pool, False, constant_norm=True)
        assert got[3][:3] == [None, None, None] and ref[3][:3] == [None, None, None]
        assert len(got[3]) == 7 and all(grad is not None for grad in got[3][3:])
        for a, b in zip(got[:2] + tuple(got[2]) + tuple(got[3]), ref[:2] + tuple(ref[2]) + tuple(ref[3])):
            assert_bitwise(a, b)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_second_backward_accumulates_exactly_twice(self, mode):
        case = layer_case("sctfa", np.float32, seed=7)
        once = run_layer(True, case, mode, 2, False)[3]
        twice = run_layer(True, case, mode, 2, False, passes=2)[3]
        for a, b in zip(once, twice):
            assert_bitwise(2 * a, b)


def split_runs(case, mode, pool, smooth):
    """The layer's recorded forward and backward (``run_layer``), and its
    no-grad forward with the membrane kept and rolled; every array, as bytes."""
    out, v, stats, grads = run_layer(True, case, mode, pool, smooth)
    currents, gamma, beta, (mean, var), att = case
    runs = [out, v, *stats, *grads]
    for keep_membrane in (True, False):
        state = BatchNormState(C, currents.dtype)
        state.mean[...], state.var[...], state.initialized = mean, var, True
        norm = None if mode == "none" else BatchNorm(Tensor(gamma), Tensor(beta), state, mode == "train")
        with no_grad():
            out, v = lif_sequence(Tensor(currents), CFG, att, smooth=smooth, timesteps=T, norm=norm,
                                  pool=pool, keep_membrane=keep_membrane)
        runs += [out.data, v, state.mean, state.var]
    return [None if a is None else (a.dtype, a.shape, a.tobytes()) for a in runs]


class TestSampleSplit:
    """The node's steps split over sample ranges on 1, 2 and 3 threads
    (every call splits: see conftest.conv_workers) give every output,
    membrane, running statistic and gradient bitwise."""

    @pytest.mark.parametrize("variant", ["bl", "stfa", "ctfa", "sctfa"])
    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("pool", [1, 2])
    @pytest.mark.parametrize("mode", ["train", "eval", "none"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_for_any_worker_count(self, conv_workers, variant, smooth, pool, mode, dtype):
        # B = 1 never splits; 3 splits 2 + 1 on two threads; 4 splits 1 + 1 + 2 on three
        for batch in (1, 3, 4):
            case = layer_case(variant, dtype, seed=batch + pool, batch=batch)
            runs = []
            for workers in (1, 2, 3):
                conv_workers(workers)
                runs.append(split_runs(case, mode, pool, smooth))
            assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_more_threads_than_cores_switching_often(self, conv_workers):
        case = layer_case("sctfa", np.float32, seed=9, batch=5)
        conv_workers(1)
        ref = split_runs(case, "train", 2, False)
        conv_workers(5)
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: got.append(split_runs(case, "train", 2, False)))
            runner.start()
            runner.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert got == [ref]

    def test_call_below_the_gate_submits_no_pool_task(self, monkeypatch):
        case = layer_case("sctfa", np.float64, seed=2)
        step_bytes = B * C * HW * HW * 8
        with runtime(conv_workers=2) as pools:
            # a step one byte short of two ranges' worth runs on the caller,
            # and only a call that splits makes the pool
            monkeypatch.setattr(neuron_module, "_SPLIT_STEP_BYTES", step_bytes // 2 + 1)
            run_layer(True, case, "train", 2, False)
            assert pools == {}
            monkeypatch.setattr(neuron_module, "_SPLIT_STEP_BYTES", step_bytes // 2)
            run_layer(True, case, "train", 2, False)
            assert list(pools) == [2]

    @pytest.mark.parametrize("variant", ["bl", "sctfa"])
    def test_synth_bar_step_and_eval_batch_submit_no_pool_task(self, variant):
        # every step of the synth_bar preset at 16x16 and B = 16 holds at
        # most 128 KiB, and every convolution has too few blocks: ranges
        # that small lose to the handoffs
        hyper = HYPER_PRESETS["synth_bar"]
        spec = parse_architecture(ARCH_PRESETS["synth_bar"], input_shape=(2, 16, 16), variant=variant,
                                  lif=LifConfig(hyper["v_th"], hyper["kappa"]), reduction=4,
                                  timesteps=hyper["timesteps"])
        net = SpikingNetwork(spec, seed=1)
        batch = hyper["batch_size"]
        frames = Rng(2).poisson(0.5, size=(batch, hyper["timesteps"], 2, 16, 16)).astype(np.float32)
        with runtime(conv_workers=4) as pools:
            vote = net.forward(frames, training=True, rng=Rng(3))
            training.mse_vote_loss(vote.o, training.one_hot(np.arange(batch) % 4, 4)).backward()
            assert all(p.grad is not None for p in net.parameters())
            with no_grad():
                net.forward(frames, training=False)
            assert pools == {}

    def test_nan_gate_in_one_part_raises_after_every_part_ends(self, monkeypatch, conv_workers):
        conv_workers(2)
        currents, _, _, _, att = layer_case("stfa", np.float64, seed=3)
        clean = lif_sequence(Tensor(currents), CFG, att, smooth=True, timesteps=T)[0].data
        # sample 1's first smooth spikes are NaN, and so is its gate of step 1
        currents[1, 0, 0, 0] = np.nan
        lock, in_flight, threads, at_failure = threading.Lock(), [0], set(), []
        fire, check = neuron_module._fire, neuron_module._check_finite

        def slow_fire(*args, **kwargs):
            with lock:
                in_flight[0] += 1
                threads.add(threading.get_ident())
            try:
                time.sleep(0.05)
                return fire(*args, **kwargs)
            finally:
                with lock:
                    in_flight[0] -= 1

        def waiting_check(data, what="an operation"):
            if what.endswith("(attention gate)") and not np.isfinite(data).all():
                # fail while the other part is inside a step
                deadline = time.monotonic() + 5
                while in_flight[0] < 1 and time.monotonic() < deadline:
                    time.sleep(0.001)
                at_failure.append(in_flight[0])
            check(data, what)

        monkeypatch.setattr(neuron_module, "_fire", slow_fire)
        monkeypatch.setattr(neuron_module, "_check_finite", waiting_check)
        with runtime(debug_nan=True), pytest.raises(NumericError, match="attention gate"):
            lif_sequence(Tensor(currents, requires_grad=True), CFG, att, smooth=True, timesteps=T)
        assert at_failure == [1] and in_flight[0] == 0 and len(threads) == 2
        monkeypatch.setattr(neuron_module, "_fire", fire)
        currents[1, 0, 0, 0] = layer_case("stfa", np.float64, seed=3)[0][1, 0, 0, 0]
        assert lif_sequence(Tensor(currents), CFG, att, smooth=True, timesteps=T)[0].data.tobytes() == clean.tobytes()


def preset_maps():
    """(T, H, W) of every preset conv layer's output, at 128x128 for the DVS
    presets and at 16x16 and 32x32 for synth_bar, and one map of more than
    8192 values."""
    maps = set()
    for name, side in (("dvs_gesture", 128), ("sl_animals", 128), ("mnist_dvs", 128),
                       ("synth_bar", 16), ("synth_bar", 32)):
        t_steps = HYPER_PRESETS[name]["timesteps"]
        spec = parse_architecture(ARCH_PRESETS[name], input_shape=(2, side, side), timesteps=t_steps)
        maps |= {(t_steps,) + st.out_hw for st in spec.stages if isinstance(st, ConvStage)}
    return sorted(maps) + [(2, 96, 96)]


class TestWholeArraySums:
    """Batch norm's statistics and conv2d's bias gradient come from
    per-frame sums taken in the ranges and blocks, added in frame order on
    the caller: bitwise numpy's whole-array ``mean``/``sum`` over (0, 2, 3),
    which sums each frame's map pairwise and then the frames in order. A
    channel's sums read only its own values, so two channels of each preset
    map stand for all of them (one channel numpy sums as one run)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [2, 16])
    @pytest.mark.parametrize("t_steps,h,w", preset_maps())
    def test_node_statistics(self, monkeypatch, conv_workers, t_steps, h, w, batch, dtype):
        rng = Rng(h + batch)
        x = rng.normal(0.3, 1.2, size=(t_steps * batch, 2, h, w)).astype(dtype)
        gamma, beta = np.array([1.3, 0.7], dtype), np.array([0.4, -0.2], dtype)
        weighting = Tensor(rng.normal(0, 1, size=(t_steps * batch, 2, h // 2, w // 2)).astype(dtype))
        # numpy on the whole array, and the gradient of the normalized
        # currents from the node without norm
        axes = (0, 2, 3)
        m = x.mean(axis=axes, keepdims=True)
        var = ((x - m) ** 2).mean(axis=axes, keepdims=True)
        xhat = (x - m) / np.sqrt(var + dtype(BN_EPS))
        cur = Tensor(xhat * gamma.reshape(1, 2, 1, 1) + beta.reshape(1, 2, 1, 1), requires_grad=True)
        out, _ = lif_sequence(cur, CFG, timesteps=t_steps, pool=2)
        tsum(out * weighting).backward()
        dbeta, dgamma = cur.grad.sum(axis=axes), (cur.grad * xhat).sum(axis=axes)

        fold, folds = neuron_module._bn_fold, []

        def recorded(state, mean, variance, n):
            folds.append((mean.tobytes(), variance.tobytes()))
            return fold(state, mean, variance, n)

        monkeypatch.setattr(neuron_module, "_bn_fold", recorded)
        for workers in (1, 2, 3):
            conv_workers(workers)
            g, b = Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True)
            norm = BatchNorm(g, b, BatchNormState(2, dtype), True)
            out, _ = lif_sequence(Tensor(x, requires_grad=True), CFG, timesteps=t_steps, norm=norm, pool=2)
            tsum(out * weighting).backward()
            assert folds.pop() == (m.tobytes(), var.tobytes())
            assert b.grad.tobytes() == dbeta.tobytes() and g.grad.tobytes() == dgamma.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [2, 16])
    @pytest.mark.parametrize("t_steps,h,w", preset_maps())
    def test_conv2d_bias_gradient(self, monkeypatch, conv_workers, t_steps, h, w, batch, dtype):
        rng = Rng(h + batch)
        frames = t_steps * batch
        x = Tensor(rng.normal(0, 1, size=(frames, 2, h, w)).astype(dtype), requires_grad=True)
        weight = Tensor(rng.normal(0, 1, size=(2, 2, 1, 1)).astype(dtype), requires_grad=True)
        g = rng.normal(0, 1, size=(frames, 2, h, w)).astype(dtype)
        # blocks of three samples, in rounds of one block a thread
        monkeypatch.setattr(tensor_module, "_CONV_BLOCK_BYTES", 3 * 2 * h * w * x.dtype.itemsize)
        for workers in (1, 2, 3):
            conv_workers(workers)
            bias = Tensor(np.zeros(2, dtype), requires_grad=True)
            tsum(conv2d(x, weight, bias) * Tensor(g)).backward()
            assert bias.grad.tobytes() == g.sum(axis=(0, 2, 3)).tobytes()


class TestStepSchedule:
    """Every layer makes one runner call for all T steps, forward and
    backward, on one range or many: the channel gate's MLP runs per sample
    inside the ranges, and no channel product runs on the caller between
    steps."""

    @pytest.mark.parametrize("variant", ["bl", "stfa", "ctfa", "sctfa"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_runner_calls_and_channel_thread(self, monkeypatch, conv_workers, variant, workers):
        conv_workers(workers)  # B = 2 samples: one range, or two
        runs, in_runner, products = [], [False], []
        run_blocks, row_matmul = tensor_module._run_blocks, neuron_module._row_matmul

        def counting_run_blocks(parts, n, work):
            runs.append(parts)
            in_runner[0] = True
            try:
                run_blocks(parts, n, work)
            finally:
                in_runner[0] = False

        def recording_row_matmul(x, m):
            products.append((in_runner[0], len(x)))
            return row_matmul(x, m)

        monkeypatch.setattr(tensor_module, "_run_blocks", counting_run_blocks)
        monkeypatch.setattr(neuron_module, "_row_matmul", recording_row_matmul)
        currents, _, _, _, att = layer_case(variant, np.float64)
        channel = variant in ("ctfa", "sctfa")
        out, _ = lif_sequence(Tensor(currents, requires_grad=True), CFG, att, timesteps=T)
        assert runs == [workers]
        tsum(out).backward()
        assert runs == [workers] * 2
        # the gates of steps 1..T-1: two products forward and two backward
        # in every range, each on that range's samples and inside the call
        assert len(products) == (4 * (T - 1) * workers if channel else 0)
        assert all(inside and rows == B // workers for inside, rows in products)


    def test_training_norm_runs_its_passes_in_the_ranges(self, monkeypatch, conv_workers):
        conv_workers(2)  # B = 2 samples: two ranges of one
        runs, ranges, totals, folds = [], {}, [], []
        run_blocks = tensor_module._run_blocks

        def counting_run_blocks(parts, n, work):
            runs.append(parts)
            run_blocks(parts, n, work)

        def in_a_range(name, fn):
            def recorded(*args, **kwargs):
                ranges.setdefault(name, set()).add((threading.get_ident(), args[0].shape))
                time.sleep(0.02)  # the other thread takes the other range
                return fn(*args, **kwargs)

            return recorded

        def on_the_caller(fn):
            def recorded(sums):
                totals.append((threading.get_ident(), sums.shape))
                return fn(sums)

            return recorded

        def fold_on_the_caller(state, m, var, n):
            folds.append((threading.get_ident(), var.shape, n))
            return fold(state, m, var, n)

        fold = neuron_module._bn_fold
        monkeypatch.setattr(tensor_module, "_run_blocks", counting_run_blocks)
        monkeypatch.setattr(neuron_module, "_bn_fold", fold_on_the_caller)
        # the mean reaches the total through the tensor module
        for module in (neuron_module, tensor_module):
            monkeypatch.setattr(module, "_sum_frames", on_the_caller(module._sum_frames))
        for name in ("_frame_sums", "_bn_square", "_bn_normalize", "_bn_train_dx"):
            monkeypatch.setattr(neuron_module, name, in_a_range(name, getattr(neuron_module, name)))
        currents, gamma, beta, _, att = layer_case("stfa", np.float64)
        norm = BatchNorm(Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True),
                         BatchNormState(C, np.float64), True)
        out, _ = lif_sequence(Tensor(currents, requires_grad=True), CFG, att, timesteps=T, norm=norm)
        # the sums of the currents, the squares and their sums, then the steps
        assert runs == [2] * 3
        forward_ranges = {name: set(calls) for name, calls in ranges.items()}
        tsum(out).backward()
        # the steps with the sums of g and of g * xhat, then dx
        assert runs == [2] * 5
        # every pass on one sample, on both threads: all steps at once for
        # the sums of the currents, else one step at a time
        caller, step = threading.get_ident(), (1, C, HW, HW)
        assert sorted(ranges) == ["_bn_normalize", "_bn_square", "_bn_train_dx", "_frame_sums"]
        assert {shape for _, shape in forward_ranges["_frame_sums"]} == {(T, 1, C, HW, HW), step}
        for name, calls in ranges.items():
            assert {shape for _, shape in calls} - {(T, 1, C, HW, HW)} == {step}
            threads = {thread for thread, _ in calls}
            assert len(threads) == 2 and caller in threads
        # the caller only adds the [T*B, C] rows: the mean, the variance,
        # then the sums of g and of g * xhat
        assert totals == [(caller, (T, B, C))] * 4
        assert folds == [(caller, (C,), T * B * HW * HW)]


class TestNoGrad:
    def test_saves_nothing_and_rolls_two_membrane_steps(self):
        t_steps, batch, ch, hw = 16, 2, 8, 32
        rng = Rng(3)
        x = Tensor(rng.normal(0.3, 1.2, size=(t_steps * batch, ch, hw, hw)).astype(np.float32))
        att = init_attention_params(ch, 2, AttentionVariant.SCTFA, rng.split("att"), np.float32)
        state = BatchNormState(ch, np.float32)
        state.initialized = True
        norm = BatchNorm(Tensor(np.full(ch, 1.5, np.float32), requires_grad=True),
                         Tensor(np.full(ch, 0.2, np.float32), requires_grad=True), state, False)
        membrane_bytes = x.data.nbytes
        with no_grad():
            gc.collect()
            tracemalloc.start()
            try:
                out, v = lif_sequence(x, CFG, att, timesteps=t_steps, norm=norm, pool=2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert v is None and not out.requires_grad and out._backward_fn is None
        # the pooled output is four steps; six step buffers (normalized
        # current, reset factor, two spike and two membrane steps) and the
        # gate's temporaries; a membrane of all steps would be 14 more
        step = membrane_bytes // t_steps
        assert peak < 4 * step + 12 * step, peak / step

        with no_grad():
            traced, v = lif_sequence(x, CFG, att, timesteps=t_steps, norm=norm, pool=2, keep_membrane=True)
        assert v.shape == (t_steps, batch, ch, hw, hw)
        assert traced.data.tobytes() == out.data.tobytes()
        recorded, v_graph = lif_sequence(x, CFG, att, timesteps=t_steps, norm=norm, pool=2)
        assert recorded.requires_grad
        assert v.tobytes() == v_graph.tobytes() and recorded.data.tobytes() == out.data.tobytes()
        assert 0 < out.data.sum() < out.size


    def test_training_norm_rolls_with_no_map_of_all_steps(self):
        # the warm-up of ``complexity``: training-mode batch norm under no_grad
        t_steps, batch, ch, hw = 16, 2, 8, 32
        rng = Rng(5)
        x = Tensor(rng.normal(0.3, 1.2, size=(t_steps * batch, ch, hw, hw)).astype(np.float32))
        att = init_attention_params(ch, 2, AttentionVariant.SCTFA, rng.split("att"), np.float32)
        norm = BatchNorm(Tensor(np.full(ch, 1.5, np.float32)), Tensor(np.full(ch, 0.2, np.float32)),
                         BatchNormState(ch, np.float32), True)
        with no_grad():
            gc.collect()
            tracemalloc.start()
            try:
                out, v = lif_sequence(x, CFG, att, timesteps=t_steps, norm=norm, pool=2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert v is None and out._backward_fn is None
        # the eval bound: the squared deviations go through the step buffer
        # and only per-frame sums of them are kept; no xhat of all steps
        step = x.data.nbytes // t_steps
        assert peak < 4 * step + 12 * step, peak / step
        reference = batchnorm(Tensor(x.data), norm.gamma, norm.beta, BatchNormState(ch, np.float32), True)
        recorded, _ = lif_sequence(reference, CFG, att, timesteps=t_steps)
        assert out.data.tobytes() == avgpool2d(recorded, 2).data.tobytes()


class TestBackwardMemory:
    def test_training_backward_needs_rows_step_maps_beyond_the_gradient(self):
        t_steps, batch, ch, hw = 10, 2, 8, 32
        rng = Rng(8)
        x = Tensor(rng.normal(0.3, 1.2, size=(t_steps * batch, ch, hw, hw)).astype(np.float32), requires_grad=True)
        att = init_attention_params(ch, 2, AttentionVariant.SCTFA, rng.split("att"), np.float32)
        norm = BatchNorm(Tensor(np.full(ch, 1.5, np.float32), requires_grad=True),
                         Tensor(np.full(ch, 0.2, np.float32), requires_grad=True), BatchNormState(ch, np.float32), True)
        out, _ = lif_sequence(x, CFG, att, timesteps=t_steps, norm=norm, pool=2)
        loss = tsum(out)
        gc.collect()
        tracemalloc.start()  # the saved arrays exist already
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad is not None and norm.gamma.grad is not None
        # the current gradient (T step maps), the pooled output's gradient
        # (T/4), and rows = 6 step buffers: z, the two carries, the pool
        # gradient, the recast bits and the decayed history. Batch norm's
        # sums of g and of g * xhat are per frame; a map of the products of
        # all steps would add T - rows = 4 step maps (22.5 steps)
        step = x.data.nbytes // t_steps
        assert peak < (t_steps + t_steps / 4 + 6 + 0.5) * step, peak / step


class TestChecks:
    def test_bad_shapes_and_pool(self):
        currents, gamma, beta, _, att = layer_case("stfa", np.float64)
        norm = BatchNorm(Tensor(gamma), Tensor(beta), BatchNormState(C, np.float64), True)
        with pytest.raises(ShapeError):
            lif_sequence(Tensor(currents), CFG, timesteps=4)  # 6 frames do not split into 4 steps
        with pytest.raises(ShapeError):
            lif_sequence(Tensor(currents), CFG, timesteps=T, pool=4)  # 6x6 does not pool by 4
        with pytest.raises(ParameterError):
            lif_sequence(Tensor(currents), CFG, timesteps=T, pool=0)
        with pytest.raises(ShapeError):
            lif_sequence(Tensor(np.zeros((T * B, 5))), CFG, timesteps=T, norm=norm)
        with pytest.raises(ShapeError):
            bad = norm._replace(gamma=Tensor(np.ones(C + 1)))
            lif_sequence(Tensor(currents), CFG, timesteps=T, norm=bad)

    def test_eval_norm_needs_statistics(self):
        currents, gamma, beta, _, _ = layer_case("bl", np.float32)
        norm = BatchNorm(Tensor(gamma), Tensor(beta), BatchNormState(C, np.float32), False)
        with pytest.raises(StateError):
            lif_sequence(Tensor(currents), CFG, timesteps=T, norm=norm)


def small_net(hw=16, t_steps=4):
    spec = parse_architecture("Input-8C3-BN-AP2-8C3-BN-AP2-VotingC2P2-AP", input_shape=(2, hw, hw),
                              variant="sctfa", lif=CFG, reduction=4, timesteps=t_steps)
    return SpikingNetwork(spec, seed=3)


class TestNetworkStructure:
    def test_conv_layer_is_conv2d_plus_one_node(self):
        net = small_net()
        assert [type(layer).__name__ for layer in net.layers] == ["_SpikingLayer"] * 3
        assert [layer.pool for layer in net.layers[:2]] == [2, 2]
        frames = Rng(4).poisson(0.5, size=(2, 4, 2, 16, 16)).astype(np.float32)
        loss = training.mse_vote_loss(net.forward(frames, training=True).o, training.one_hot([0, 1], 2))
        ops = [node._backward_fn.__qualname__.split(".")[0]
               for node in _topo_order(loss._node) if node._backward_fn is not None]
        # the loss; the voting layer's readout, node, linear and flatten;
        # then each conv layer is one node over conv2d
        assert ops == ["mul", "tsum", "mul", "sub", "tmean",
                       "transpose", "tmean", "reshape", "lif_sequence", "linear", "reshape",
                       "lif_sequence", "conv2d", "lif_sequence", "conv2d"]

    def test_pool_after_pool_and_pool_without_conv_stay_layers(self):
        spec = parse_architecture("Input-AP2-4C3-AP2-AP2-VotingC2P2-AP", input_shape=(2, 8, 8),
                                  variant="bl", lif=CFG, timesteps=2)
        net = SpikingNetwork(spec, seed=1)
        kinds = [type(layer).__name__ for layer in net.layers]
        assert kinds == ["_PoolLayer", "_SpikingLayer", "_PoolLayer", "_SpikingLayer"]
        assert net.layers[1].pool == 2 and isinstance(net.layers[1], _SpikingLayer)
        out = net.forward(np.ones((1, 2, 2, 8, 8), dtype=np.float32), training=True).o
        assert out.shape == (1, 2, 2)


class TestNoGradForwardMemory:
    def test_peak_stays_under_one_map_per_conv_layer(self):
        hw, t_steps, batch, ch = 32, 8, 8, 8
        net = small_net(hw, t_steps)
        frames = Rng(4).poisson(0.5, size=(batch, t_steps, 2, hw, hw)).astype(np.float32)
        net.forward(frames, training=True)
        with no_grad():
            net.forward(frames)
            gc.collect()
            tracemalloc.start()
            try:
                net.forward(frames)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        layer0_map = t_steps * batch * ch * hw * hw * 4
        # the frames' time-major copy, layer 0's conv output and its pooled
        # quarter, eight step-sized buffers (normalized current, reset
        # factor, two spike and two membrane steps, the gate), and conv2d's
        # patch block of at most 1 MiB with its padded input. A batch-norm
        # output, membrane or float spike map of all steps does not fit:
        # the op composition peaked at 7.8 MB here, the node at 5.4 MB.
        bound = frames.nbytes + 1.25 * layer0_map + 8 * layer0_map // t_steps + 1.25 * 2**20
        assert peak < bound, (peak, bound)
