"""LIF dynamics: decay, hard reset, gated update, analytic properties, and
the fused T-step node against the per-step composition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikefuse.attention import AttentionVariant, compute_attention, init_attention_params
from spikefuse.errors import NumericError, ParameterError, ShapeError
from spikefuse.network import SpikingNetwork, parse_architecture
from spikefuse.neuron import LifConfig, lif_sequence, lif_step, lif_step_attended
from spikefuse.rng import Rng
from spikefuse.tensor import Tensor, reshape, stack, tsum

from oracles import fd_gradient, rel_err
from seams import apply_seams, runtime


def state_with(v, s, dtype=np.float64):
    """A membrane and the spikes of the last step, as tensors."""
    return Tensor(np.asarray(v, dtype=dtype)), Tensor(np.asarray(s, dtype=dtype))


def zero_state(shape, dtype=np.float64):
    return state_with(np.zeros(shape), np.zeros(shape), dtype)


class TestLifConfig:
    @pytest.mark.parametrize("v_th", [0.0, -1.0, float("nan"), float("inf")])
    def test_threshold_must_be_positive_and_finite(self, v_th):
        with pytest.raises(ParameterError, match="v_th"):
            LifConfig(v_th=v_th, kappa=0.7)

    @pytest.mark.parametrize("kappa", [-0.1, 1.5, float("nan"), float("inf")])
    def test_decay_must_be_in_unit_interval(self, kappa):
        with pytest.raises(ParameterError, match="kappa"):
            LifConfig(v_th=1.0, kappa=kappa)


class TestLifStep:
    def test_subthreshold_decay(self):
        cfg = LifConfig(v_th=1.15, kappa=0.7)
        v, spikes = lif_step(*state_with([1.0], [0.0]), Tensor(np.zeros(1)), cfg)
        assert v.data[0] == pytest.approx(0.7)
        assert spikes.data[0] == 0.0

    def test_hard_reset_after_spike(self):
        cfg = LifConfig(v_th=1.0, kappa=0.9)
        v, _ = lif_step(*state_with([5.0], [1.0]), Tensor(np.zeros(1)), cfg)
        assert v.data[0] == 0.0

    def test_threshold_crossing(self):
        cfg = LifConfig(v_th=0.8, kappa=0.7)
        v, spikes = lif_step(*state_with([0.0], [0.0]), Tensor(np.array([1.2])), cfg)
        assert v.data[0] == pytest.approx(1.2)
        assert spikes.data[0] == 1.0

    def test_shape_mismatch(self):
        cfg = LifConfig(v_th=1.0, kappa=0.5)
        with pytest.raises(ShapeError):
            lif_step(*state_with([0.0], [0.0]), Tensor(np.zeros(2)), cfg)

    @given(
        st.floats(0.05, 1.0),
        st.floats(0.1, 1.1),
        st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_zero_input_decay_is_exact_power(self, kappa, v0, steps):
        # below threshold with zero input: v_n = kappa^n * v0 exactly
        cfg = LifConfig(v_th=2.0, kappa=kappa)
        v, s = state_with([v0], [0.0])
        zero = Tensor(np.zeros(1))
        for _ in range(steps):
            v, s = lif_step(v, s, zero, cfg)
            assert s.data[0] == 0.0
        expect = np.float64(v0)
        for _ in range(steps):
            expect = np.float64(kappa) * expect * np.float64(1.0)
        assert v.data[0] == expect  # bitwise: same op sequence

    @given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_spiked_neuron_history_zeroed(self, seed, b, c):
        cfg = LifConfig(v_th=0.5, kappa=0.8)
        rng = Rng(seed)
        v = rng.normal(0, 2, size=(b, c))
        v, spikes = lif_step(*state_with(v, np.zeros((b, c))), Tensor(np.zeros((b, c))), cfg)
        # wherever a spike fired, the next zero-input update must start at 0
        v2, _ = lif_step(v, spikes, Tensor(np.zeros((b, c))), cfg)
        fired = spikes.data == 1.0
        assert np.all(v2.data[fired] == 0.0)


class TestLifStepAttended:
    def test_unit_gate_bitwise_equals_plain(self):
        cfg = LifConfig(v_th=1.0, kappa=0.7)
        rng = Rng(77)
        v = rng.normal(0, 1, size=(3, 4))
        s = (rng.random((3, 4)) < 0.3).astype(np.float64)
        i = rng.normal(0, 1, size=(3, 4))
        plain, sp_plain = lif_step(*state_with(v, s), Tensor(i), cfg)
        ones = Tensor(np.ones((3, 4)))
        gated, sp_gated = lif_step_attended(*state_with(v, s), Tensor(i), ones, cfg)
        assert np.array_equal(plain.data, gated.data)
        assert np.array_equal(sp_plain.data, sp_gated.data)

    def test_half_gate_halves_history(self):
        cfg = LifConfig(v_th=1.15, kappa=0.7)
        v, _ = lif_step(*state_with([1.0], [0.0]), Tensor(np.zeros(1)), cfg, u=Tensor(np.array([0.5])))
        assert v.data[0] == pytest.approx(0.35)

    def test_gate_gradient_is_decayed_history(self):
        # d v' / d u = kappa * v * (1 - s) = 0.7 at (kappa=.7, v=1, s=0)
        cfg = LifConfig(v_th=10.0, kappa=0.7)
        u = Tensor(np.array([0.9]), requires_grad=True)
        v, _ = lif_step(*state_with([1.0], [0.0]), Tensor(np.zeros(1)), cfg, smooth=True, u=u)
        tsum(v).backward()
        assert u.grad[0] == pytest.approx(0.7)

        def loss_fn():
            v2, _ = lif_step(*state_with([1.0], [0.0]), Tensor(np.zeros(1)), cfg, smooth=True, u=u)
            return float(v2.data.sum())

        assert rel_err(u.grad, fd_gradient(loss_fn, u.data)).max() < 1e-6

    def test_missing_gate_rejected(self):
        cfg = LifConfig(v_th=1.0, kappa=0.5)
        with pytest.raises(ParameterError):
            lif_step_attended(*state_with([0.0], [0.0]), Tensor(np.zeros(1)), None, cfg)

    def test_bad_gate_shape_rejected(self):
        cfg = LifConfig(v_th=1.0, kappa=0.5)
        with pytest.raises(ShapeError):
            lif_step(*zero_state((2, 3)), Tensor(np.zeros((2, 3))), cfg, u=Tensor(np.zeros((2, 4))))

    @given(st.integers(0, 2**31 - 1), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_attended_trajectory_with_unit_gate_matches_plain(self, seed, steps):
        cfg = LifConfig(v_th=1.0, kappa=0.6)
        rng = Rng(seed)
        shape = (2, 3)
        inputs = [Tensor(rng.normal(0, 1, size=shape)) for _ in range(steps)]
        va, sa = zero_state(shape)
        vb, sb = zero_state(shape)
        for i in inputs:
            va, sa = lif_step(va, sa, i, cfg)
            vb, sb = lif_step_attended(vb, sb, i, Tensor(np.ones(shape)), cfg)
            assert np.array_equal(va.data, vb.data)
            assert np.array_equal(sa.data, sb.data)


class TestStateHandling:
    def test_bounded_inputs_stay_finite(self):
        cfg = LifConfig(v_th=0.9, kappa=0.95)
        v, s = zero_state((4,))
        rng = Rng(13)
        for _ in range(200):
            v, s = lif_step(v, s, Tensor(rng.uniform(-2, 2, size=4)), cfg)
        assert np.all(np.isfinite(v.data))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            LifConfig(v_th=0.0, kappa=0.5)
        with pytest.raises(ParameterError):
            LifConfig(v_th=1.0, kappa=1.5)


# ---------------------------------------------------------------------------
# the fused T-step node against the per-step composition


def composed_sequence(currents, t_steps, cfg, params, smooth=False):
    """The per-step reference: ``lif_step`` gated from the second step on by
    ``compute_attention`` over the T steps of the step-major ``currents``
    [T*B, ...], as separate graph nodes; returns (spikes [T*B, ...] tensor,
    membrane [T, B, ...] array)."""
    steps = reshape(currents, (t_steps, currents.shape[0] // t_steps) + currents.shape[1:])
    v, s = zero_state(steps.shape[1:], currents.dtype)
    spikes, membrane = [], []
    for t in range(t_steps):
        u = compute_attention(s, params) if t > 0 else None
        v, s = lif_step(v, s, steps[t], cfg, smooth=smooth, u=u)
        spikes.append(s)
        membrane.append(v.data)
    return reshape(stack(spikes), currents.shape), np.stack(membrane)


# (pin the spatial branch to exactly 1, remove the channel branch): see seams.py;
# on a variant without that branch the seam leaves the parameters as they are
UNIT_SEAMS = [(False, False), (True, False), (False, True)]
SEQ_CFG = LifConfig(v_th=1.0, kappa=0.7)


def sequence_case(variant, dtype, t_steps, seed=0, shape=(2, 4, 5, 5)):
    """Step-major currents [T*B, C, H, W] that drive some neurons past
    threshold, the layer's attention parameters and a random output
    weighting."""
    rng = Rng(seed)
    currents = rng.normal(0.6, 0.8, size=(t_steps,) + shape).astype(dtype).reshape((-1,) + shape[1:])
    params = init_attention_params(shape[1], 2, AttentionVariant(variant), rng.split("att"), dtype)
    weighting = rng.normal(0, 1, size=currents.shape).astype(dtype)
    return currents, params, weighting


def param_tensors(params):
    return [] if params is None else [p for _, p in params.named()]


def sequence_grads(run, currents, params, weighting):
    """Gradients of sum(spikes * weighting) for currents and every attention
    parameter (None where the run gives none)."""
    x = Tensor(currents.copy(), requires_grad=True)
    for p in param_tensors(params):
        p.grad = None
    spikes = run(x)
    tsum(spikes * Tensor(weighting)).backward()
    return [x.grad] + [p.grad for p in param_tensors(params)]


class TestLifSequence:
    @pytest.mark.parametrize("variant", ["bl", "stfa", "ctfa", "sctfa"])
    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("t_steps", [1, 2, 5])
    @pytest.mark.parametrize("unit", UNIT_SEAMS)
    def test_forward_bitwise_equals_composition(self, variant, smooth, dtype, t_steps, unit):
        currents, params, _ = sequence_case(variant, dtype, t_steps, seed=t_steps)
        params = apply_seams(params, *unit)
        ref_s, ref_v = composed_sequence(Tensor(currents), t_steps, SEQ_CFG, params, smooth=smooth)
        s, v = lif_sequence(Tensor(currents), SEQ_CFG, params, smooth=smooth, timesteps=t_steps, keep_membrane=True)
        assert s.dtype == dtype and v.dtype == dtype
        assert np.array_equal(s.data, ref_s.data)
        assert np.array_equal(v, ref_v)
        # without the trace the membrane may roll in two steps; the spikes are the same
        rolled, _ = lif_sequence(Tensor(currents), SEQ_CFG, params, smooth=smooth, timesteps=t_steps)
        assert rolled.data.tobytes() == s.data.tobytes()
        if not smooth:
            assert 0 < s.data.sum() < s.size  # the case exercises both spike values

    @pytest.mark.parametrize("variant", ["bl", "stfa", "ctfa", "sctfa"])
    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("t_steps", [1, 2, 5])
    @pytest.mark.parametrize("unit", UNIT_SEAMS)
    def test_gradients_match_composition_f64(self, variant, smooth, t_steps, unit):
        currents, params, weighting = sequence_case(variant, np.float64, t_steps, seed=10 + t_steps)
        params = apply_seams(params, *unit)
        ref = sequence_grads(
            lambda x: composed_sequence(x, t_steps, SEQ_CFG, params, smooth=smooth)[0],
            currents, params, weighting,
        )
        got = sequence_grads(lambda x: lif_sequence(x, SEQ_CFG, params, smooth=smooth, timesteps=t_steps)[0],
                             currents, params, weighting)
        for r, g in zip(ref, got):
            if r is None:  # no gated step at T=1: the true gradient is 0
                assert g is None or not np.any(g)
                continue
            assert g.shape == r.shape
            assert np.all(np.abs(g - r) <= 1e-12 * np.maximum(1.0, np.abs(r)))

    def test_finite_difference_f64_smooth(self):
        currents, params, weighting = sequence_case("sctfa", np.float64, 3, seed=21, shape=(2, 4, 3, 3))
        x = Tensor(currents, requires_grad=True)
        spikes, _ = lif_sequence(x, SEQ_CFG, params, smooth=True, timesteps=3)
        tsum(spikes * Tensor(weighting)).backward()

        def loss():
            out, _ = lif_sequence(Tensor(currents), SEQ_CFG, params, smooth=True, timesteps=3)
            return float((out.data * weighting).sum())

        for leaf in [x] + param_tensors(params):
            fd = fd_gradient(loss, leaf.data)
            assert rel_err(leaf.grad, fd).max() < 1e-6

    def test_one_node_per_layer(self):
        currents, params, _ = sequence_case("sctfa", np.float64, 4)
        x = Tensor(currents, requires_grad=True)
        spikes, _ = lif_sequence(x, SEQ_CFG, params, timesteps=4)
        assert spikes._parents == tuple(t._node for t in [x] + param_tensors(params))

    def test_second_backward_pass_accumulates(self):
        currents, params, weighting = sequence_case("sctfa", np.float64, 3)
        x = Tensor(currents, requires_grad=True)
        spikes, _ = lif_sequence(x, SEQ_CFG, params, timesteps=3)
        loss = tsum(spikes * Tensor(weighting))
        loss.backward()
        once = [x.grad.copy()] + [p.grad.copy() for p in param_tensors(params)]
        loss.backward()
        for first, leaf in zip(once, [x] + param_tensors(params)):
            assert np.array_equal(leaf.grad, 2 * first)

    def test_no_gradient_for_constant_currents(self):
        currents, params, _ = sequence_case("ctfa", np.float64, 3)
        spikes, _ = lif_sequence(Tensor(currents), SEQ_CFG, params, timesteps=3)
        grads = spikes._backward_fn(np.ones_like(spikes.data))
        assert grads[0] is None and all(g is not None for g in grads[1:])

    def test_shape_errors(self):
        _, params, _ = sequence_case("stfa", np.float64, 2)
        with pytest.raises(ShapeError):
            lif_sequence(Tensor(np.zeros(3)), SEQ_CFG, timesteps=1)
        with pytest.raises(ShapeError):
            lif_sequence(Tensor(np.zeros((2, 3, 4))), SEQ_CFG, params, timesteps=2)


class TestLifSequenceDebugNan:
    @pytest.fixture
    def debug_nan(self):
        with runtime(debug_nan=True):
            yield

    def test_nan_current_passes_silently_without_the_flag(self):
        currents, params, _ = sequence_case("sctfa", np.float32, 3)
        currents[1 * 2, 0, 0, 0] = np.nan  # step 1, sample 0
        spikes, v = lif_sequence(Tensor(currents), SEQ_CFG, params, timesteps=3)
        assert np.isfinite(spikes.data).all() and not np.isfinite(v).all()

    def test_nan_current_raises(self, debug_nan):
        currents, params, _ = sequence_case("sctfa", np.float32, 3)
        currents[1 * 2, 0, 0, 0] = np.nan  # step 1, sample 0
        with pytest.raises(NumericError):
            lif_sequence(Tensor(currents), SEQ_CFG, params, timesteps=3)

    def test_nan_gradient_raises(self, debug_nan):
        currents, params, _ = sequence_case("sctfa", np.float64, 3)
        spikes, _ = lif_sequence(Tensor(currents, requires_grad=True), SEQ_CFG, params, timesteps=3)
        g = np.ones_like(spikes.data)
        g[2 * 2 + 1, 0, 0, 0] = np.nan  # step 2, sample 1
        with pytest.raises(NumericError):
            spikes._backward_fn(g)

    def test_network_forward_raises_on_nan_membrane(self, debug_nan):
        # a NaN gate weight turns one conv layer's membrane NaN from the
        # second step on while its spikes read as clean zeros
        spec = parse_architecture(
            "Input-4C3-BN-AP2-4C3-BN-VotingC2P2-AP", input_shape=(2, 6, 6), variant="stfa",
            lif=SEQ_CFG, reduction=4, timesteps=3,
        )
        net = SpikingNetwork(spec, seed=1)
        # the second conv layer (its stage index is 2: the first absorbed the AP2)
        second_conv = net.layers[1]
        assert second_conv.name == "layer2"
        second_conv.attention.spatial_weight.data[0, 0, 0, 0] = np.nan
        frames = Rng(2).poisson(1.0, size=(2, 3, 2, 6, 6)).astype(np.float32)
        with pytest.raises(NumericError):
            net.forward(frames, training=True)
        with runtime(debug_nan=False):
            assert np.isfinite(net.forward(frames, training=True).o.data).all()
