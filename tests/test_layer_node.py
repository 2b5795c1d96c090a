"""The layer node with batch norm and pooling against the op composition
``batchnorm -> lif_sequence -> avgpool2d``: outputs,
membrane, running statistics and every gradient bitwise, in f32 and f64."""

import gc
import tracemalloc

import numpy as np
import pytest

from spikefuse import training
from spikefuse.attention import AttentionVariant, init_attention_params
from spikefuse.errors import ParameterError, ShapeError, StateError
from spikefuse.network import SpikingNetwork, _SpikingLayer, parse_architecture
from spikefuse.neuron import BatchNorm, LifConfig, lif_sequence
from spikefuse.rng import Rng
from spikefuse.tensor import (
    BatchNormState,
    Tensor,
    _topo_order,
    avgpool2d,
    batchnorm,
    no_grad,
    tsum,
)

from seams import apply_seams, pin_spatial

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
        import sys
        import threading

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
        import spikefuse.neuron as neuron_module
        import spikefuse.tensor as tensor_module

        submitted = []

        class Pool:
            def submit(self, fn, *args):
                submitted.append(args)
                raise AssertionError("a call below the gate used the pool")

        monkeypatch.setattr(tensor_module, "_conv_pool", Pool())
        monkeypatch.setattr(tensor_module, "CONV_WORKERS", 2)
        case = layer_case("sctfa", np.float64, seed=2)
        step_bytes = B * C * HW * HW * 8
        # a step one byte short of two ranges' worth runs on the caller
        monkeypatch.setattr(neuron_module, "_SPLIT_STEP_BYTES", step_bytes // 2 + 1)
        run_layer(True, case, "train", 2, False)
        assert submitted == []
        monkeypatch.setattr(neuron_module, "_SPLIT_STEP_BYTES", step_bytes // 2)
        with pytest.raises(AssertionError, match="used the pool"):
            run_layer(True, case, "train", 2, False)
        assert len(submitted) == 1

    def test_nan_gate_in_one_part_raises_after_every_part_ends(self, monkeypatch, conv_workers):
        import threading
        import time

        import spikefuse.neuron as neuron_module
        from spikefuse.errors import NumericError
        from spikefuse.tensor import set_debug_nan

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
        set_debug_nan(True)
        try:
            with pytest.raises(NumericError, match="attention gate"):
                lif_sequence(Tensor(currents, requires_grad=True), CFG, att, smooth=True, timesteps=T)
        finally:
            set_debug_nan(False)
        assert at_failure == [1] and in_flight[0] == 0 and len(threads) == 2
        monkeypatch.setattr(neuron_module, "_fire", fire)
        currents[1, 0, 0, 0] = layer_case("stfa", np.float64, seed=3)[0][1, 0, 0, 0]
        assert lif_sequence(Tensor(currents), CFG, att, smooth=True, timesteps=T)[0].data.tobytes() == clean.tobytes()


class TestStepSchedule:
    """A layer with a channel branch makes one runner call per step,
    forward and backward, on one range or many, and runs the branch's
    matrix products on the calling thread between them; any other layer
    runs all T steps in one runner call each way."""

    @pytest.mark.parametrize("variant", ["bl", "stfa", "ctfa", "sctfa"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_runner_calls_and_channel_thread(self, monkeypatch, conv_workers, variant, workers):
        import threading

        import spikefuse.neuron as neuron_module
        import spikefuse.tensor as tensor_module

        conv_workers(workers)  # B = 2 samples: one range, or two
        runs, mlp_threads = [], []
        run_blocks = tensor_module._run_blocks

        def counting_run_blocks(parts, n, work):
            runs.append(parts)
            run_blocks(parts, n, work)

        monkeypatch.setattr(tensor_module, "_run_blocks", counting_run_blocks)
        for name in ("channel_forward", "channel_backward"):
            def recording(*args, _method=getattr(neuron_module._Gate, name)):
                mlp_threads.append(threading.get_ident())
                return _method(*args)

            monkeypatch.setattr(neuron_module._Gate, name, recording)
        currents, _, _, _, att = layer_case(variant, np.float64)
        channel = variant in ("ctfa", "sctfa")
        calls = T if channel else 1
        out, _ = lif_sequence(Tensor(currents, requires_grad=True), CFG, att, timesteps=T)
        assert runs == [workers] * calls
        tsum(out).backward()
        assert runs == [workers] * (2 * calls)
        assert mlp_threads == [threading.get_ident()] * (2 * (T - 1) if channel else 0)


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
